"""Acceptance gate: every row of the ``sobtrace verify`` check registry.

Each check pins one headline claim of the package (weak norms of 1/d on
cubes, the punctured-ball tail, the profile bounds, the squares-stack
violation, the rooms witnesses, the Lorentz identities, the strictness
example, the truncation scheme, the one-dimensional traces and the
rearrangement invariants) and reports rows ``(quantity, measured,
relation, bound)``.  The gate runs each check at the seeds 0-4 that
``sobtrace verify --seed`` takes; the wider sweeps of the same claims live
in the unit tests of the module that owns them.
"""

import pytest

from sobtrace.checks import CHECKS, row_ok


@pytest.mark.parametrize("name", list(CHECKS))
def test_verify_registry(name):
    for seed in range(5):
        rows = CHECKS[name](seed)
        assert rows
        for row in rows:
            assert row_ok(row), (seed, row)
