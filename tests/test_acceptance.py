"""Acceptance gate: every pinned closed-form value and behavioral claim.

Each test reproduces one headline guarantee of the package at its stated
tolerance: weak norms of 1/d on cubes, distribution laws on grids, the
punctured-ball tail, rectangle and tower isoperimetric profiles, the
squares-stack portion violation, the rooms witness bound, Lorentz norm
identities, the slowly-varying strictness example, the truncation scheme,
one-dimensional endpoint classification, and the rearrangement invariants.
The last test runs every row of the ``sobtrace verify`` check registry.
"""

import math
import time

import numpy as np
import pytest

from sobtrace.checks import CHECKS, row_ok
from sobtrace.domains import (
    ball_portion_scan,
    gallery,
    rasterize,
    rectangle,
)
from sobtrace.isoperimetry import (
    GridSet,
    profile_search,
    rectangle_profile,
    rooms_passages_witness,
    skyscraper_profile_bound,
    superadditivity_check,
)
from sobtrace.lorentz import (
    ac_diagnostic,
    embedding_constant,
    lorentz_quasinorm,
    lorentz_quasinorm_distribution,
    model_weak_norm,
    sierpinski_divergence_certificate,
    sierpinski_model,
    sierpinski_partial_integrals,
)
from sobtrace.rearrangement import SampledFunction, rearrange
from sobtrace.traces import (
    CONSISTENT_WITH_ZERO_TRACE,
    INCONSISTENT_WITH_ZERO_TRACE,
    GridFunction,
    approximation_scheme,
    constant_function,
    distance_function,
    distance_truncation,
    oned_zero_trace,
    ratio_field,
    sample_function,
    sobolev_norm,
    weak_norm_estimate,
)


# ---------------------------------------------------------------------------
# 1. weak norm of 1/d on unit cubes in dimensions 1..3


def test_cube_weak_norm_all_dimensions(cube1_g8, cube2_g8, cube3_g6):
    t0 = time.monotonic()
    grids = {1: cube1_g8, 2: cube2_g8, 3: cube3_g6}
    for n, gd in grids.items():
        model = gd.domain.ratio_models["inv_d"]
        analytic = model_weak_norm(model)
        assert abs(analytic - 2.0 * n) <= 1e-10 * 2.0 * n
        sampled = weak_norm_estimate(constant_function(gd)).estimate
        assert abs(sampled - 2.0 * n) <= 0.02 * 2.0 * n
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. distribution law of 1/d on the unit square, and its AC failure


def test_cube_distribution_and_ac_on_grid(cube2_g8):
    f = ratio_field(constant_function(cube2_g8))
    r = rearrange(f)
    for xi in (4.0, 8.0, 16.0, 32.0):
        closed = xi * (1.0 - (1.0 - 2.0 / xi) ** 2)
        assert abs(xi * r.level_measure(xi) - closed) <= 0.01 * closed
    report = ac_diagnostic(f, p=1.0)
    assert report.verdict == "AC_VIOLATED_AT_INFINITY"
    assert abs(report.limit_at_infinity_estimate - 4.0) <= 0.05 * 4.0


# ---------------------------------------------------------------------------
# 3. punctured ball: distribution, weak tail, and AC consistency


def test_punctured_ball_distribution_weak_norm_ac(pball2_g9):
    u = sample_function(pball2_g9,
                        lambda c: 1.0 - np.sqrt((c**2).sum(axis=-1)), "1-r")
    f = ratio_field(u)
    r = rearrange(f)
    for xi in (1.0, 2.0, 4.0, 8.0):
        closed = math.pi / (xi + 1.0) ** 2
        assert abs(r.level_measure(xi) - closed) <= 0.01 * closed
    # the tail part of the quotient stays summable: sup_{xi >= 1} xi mu(xi)
    # equals pi/4, far under the pi/2 ceiling; the full weak norm is pi
    tail = max(float(xi) * r.level_measure(float(xi))
               for xi in np.geomspace(1.0, f.value_cap, 512))
    assert tail <= (math.pi / 2.0) * 1.01
    full = lorentz_quasinorm(f, (1.0, math.inf))
    assert abs(full - math.pi) <= 0.01 * math.pi
    model = pball2_g9.domain.ratio_models["hardy_ratio"]
    report = ac_diagnostic(model, p=1.0)
    assert report.verdict == "AC_CONSISTENT"
    assert report.limit_at_zero_estimate < 1e-3
    assert report.limit_at_infinity_estimate < 1e-3


# ---------------------------------------------------------------------------
# 4. rectangle profile: closed form vs lower bound vs grid search


def test_rectangle_profile_oracle_and_search():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = float(rng.uniform(0.05, 0.95))
        s = float(rng.uniform(0.0, 1.0)) * a / 2.0
        prof = rectangle_profile(a, s)
        assert math.sqrt(2.0 * a * s) <= prof.witness_perimeter
    h = 2.0**-8
    for a in (0.8, 0.5, 0.25):
        gd = rasterize(rectangle(a), h)
        for s in (a * a / (2.0 * math.pi), a * a / math.pi, a / 4.0, a / 2.0):
            psi = rectangle_profile(a, s).witness_perimeter
            found = profile_search(gd, s).witness_perimeter
            assert abs(found - psi) <= 4.0 * h
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 5. towers: superadditivity of the relative perimeter, profile floor


def test_skyscrapers_superadditivity_and_profile(sky3_g6):
    rng = np.random.default_rng(7)
    ni, nj = sky3_g6.occupancy.shape
    for trial in range(200):
        if trial % 2 == 0:
            i0, i1 = np.sort(rng.integers(0, ni + 1, size=2))
            j0, j1 = np.sort(rng.integers(0, nj + 1, size=2))
            mask = np.zeros_like(sky3_g6.occupancy)
            mask[i0:i1, j0:j1] = True
        else:
            mask = rng.random(sky3_g6.occupancy.shape) < rng.uniform(0.1, 0.9)
        mask &= sky3_g6.occupancy
        lhs, rhs = superadditivity_check(GridSet(sky3_g6, mask))
        assert lhs >= rhs
    for s in (0.25, 0.5, 1.0):
        point = profile_search(sky3_g6, s)
        floor = skyscraper_profile_bound(s, sky3_g6.domain)
        assert point.witness_perimeter >= floor - 4.0 * sky3_g6.h


# ---------------------------------------------------------------------------
# 6. squares stack: the scan finds the violating gap sequence


def test_squares_stack_violating_sequence():
    dom = gallery("squares_stack", kmax=8)
    report = ball_portion_scan(dom, mc_samples=100000)
    assert report.verdict == "VIOLATED_SEQUENCE_FOUND"
    seq = report.violating_sequence
    assert len(seq) == 5
    for point, radius, ratio, stderr, n in seq:
        assert n == 100000
        k = round(-math.log2(radius))
        assert radius == 2.0**-k - 2.0 ** (-2 * k)
        expected = 1.0 / (math.pi * (2.0**k - 1.0))
        assert abs(ratio - expected) <= 3.0 * stderr
    again = ball_portion_scan(dom, mc_samples=100000)
    assert again.to_json() == report.to_json()


# ---------------------------------------------------------------------------
# 7. rooms chain: tail-cut witnesses obey the quadratic bound


def test_rooms_witness_quadratic_bound():
    import mpmath

    mpmath.mp.dps = 50
    s_hi = math.pi * 2.0**-4
    for s in np.geomspace(s_hi * 1e-4, s_hi * (1.0 - 1e-9), 50):
        w = rooms_passages_witness(float(s), kmax=24)
        # perimeter is an exact dyadic float; compare against the bound
        # evaluated with 50-digit pi so float rounding cannot flip the sign
        bound = 256 * mpmath.mpf(float(s)) ** 2 / mpmath.pi**2
        assert mpmath.mpf(w["perimeter"]) <= bound
        assert w["tail_measure"] >= s


# ---------------------------------------------------------------------------
# 8. Lorentz identities: form equivalence, embeddings, strictness


def test_lorentz_equivalence_embedding_strictness():
    rng = np.random.default_rng(19)

    def random_sample():
        m = int(rng.integers(1, 25))
        vals = np.abs(rng.lognormal(0.0, 1.2, size=m))
        meas = rng.uniform(1e-3, 2.0, size=m)
        return SampledFunction(values=vals, measures=meas)

    for _ in range(1000):
        f = random_sample()
        p = float(rng.uniform(1.0, 5.0))
        q = math.inf if rng.random() < 0.25 else float(rng.uniform(1.0, 8.0))
        n1 = lorentz_quasinorm(f, (p, q))
        n2 = lorentz_quasinorm_distribution(f, (p, q))
        assert abs(n1 - n2) <= 1e-10 * max(1.0, n1)

    for _ in range(1000):
        f = random_sample()
        p = float(rng.uniform(1.0, 5.0))
        q = float(rng.uniform(1.0, p))
        r = math.inf if rng.random() < 0.25 else float(rng.uniform(q, 9.0))
        C = embedding_constant(p, q, r)
        lhs = lorentz_quasinorm(f, (p, r))
        rhs = lorentz_quasinorm(f, (p, q))
        assert lhs <= C * rhs * (1.0 + 1e-9)

    for p in (1.0, 2.0):
        model = sierpinski_model(p)
        report = ac_diagnostic(model, p=p)
        assert report.verdict == "AC_CONSISTENT"
        for q in (1.0, 2.0, 4.0, 8.0):
            partials = sierpinski_partial_integrals(p, q,
                                                    [1e-4, 1e-8, 1e-12])
            assert partials[0] < partials[1] < partials[2]
            cert = sierpinski_divergence_certificate(p, q)
            assert cert["strictly_increasing"]
            assert cert["log_growth"] > 10.0


# ---------------------------------------------------------------------------
# 9. truncation residuals and the approximation scheme


def test_truncation_and_approximation_scheme(cube2_g8):
    d = distance_function(cube2_g8)
    for p in (1.0, 2.0, 4.0):
        for eta in (0.2, 0.1, 0.05):
            trunc, rep = distance_truncation(d, eta)
            resid = GridFunction(cube2_g8, d.values - trunc.values, "resid")
            assert sobolev_norm(resid, p).lp <= eta * 1.0 ** (1.0 / p)
            # collar snapping quantizes the grid measure by O(h)
            assert abs(rep["removed_measure_grid"]
                       - rep["removed_measure_exact"]) <= 4.0 * cube2_g8.h
    # the p=1 residual also matches its closed form 2 eta^2 - (8/3) eta^3
    trunc, _ = distance_truncation(d, 0.2)
    resid = GridFunction(cube2_g8, d.values - trunc.values, "resid")
    closed = 2.0 * 0.2**2 - (8.0 / 3.0) * 0.2**3
    assert math.isclose(sobolev_norm(resid, 1.0).lp, closed, rel_tol=1e-2)

    phi_d = sample_function(
        cube2_g8,
        lambda c: (1.0 + 0.9 * c[..., 0]) * cube2_g8.distance_field, "phi*d")
    rep = approximation_scheme(phi_d, 2.0)
    assert rep.verdict == CONSISTENT_WITH_ZERO_TRACE
    rows = rep.rows
    assert rows[0][0] == 1.0 and rows[-1][0] == 1024.0
    assert rows[0][3] > 0.0
    assert rows[-1][3] <= rows[0][3] / 100.0

    rep1 = approximation_scheme(constant_function(cube2_g8), 1.0)
    assert rep1.verdict == INCONSISTENT_WITH_ZERO_TRACE
    valid = [r for r in rep1.rows if not r[4]]
    assert abs(valid[-1][3] - 4.0) <= 0.05 * 4.0


# ---------------------------------------------------------------------------
# 10. one-dimensional endpoint classification and sup bounds


def test_one_dimensional_trace_suite():
    rng = np.random.default_rng(23)
    cases = []
    for i in range(100):
        a = float(rng.uniform(-2.0, 2.0))
        L = float(rng.choice([0.5, 1.0, 2.0]))
        c1, c2 = (rng.uniform(0.3, 1.0, size=2)
                  * rng.choice([-1.0, 1.0], size=2))
        if i < 50:
            c0, mode = 0.0, "none"
            expect = (True, True)
        else:
            c0 = float(rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0]))
            mode = ["left", "right", "both"][i % 3]
            expect = {"left": (False, True), "right": (True, False),
                      "both": (False, False)}[mode]

        def base(x, a=a, L=L, c1=c1, c2=c2):
            t = (np.asarray(x, dtype=float) - a) / L
            return c1 * np.sin(math.pi * t) + c2 * np.sin(2.0 * math.pi * t)

        def dbase(x, a=a, L=L, c1=c1, c2=c2):
            t = (np.asarray(x, dtype=float) - a) / L
            return (c1 * math.pi * np.cos(math.pi * t)
                    + c2 * 2.0 * math.pi * np.cos(2.0 * math.pi * t)) / L

        def u(x, base=base, c0=c0, mode=mode, a=a, L=L):
            t = (np.asarray(x, dtype=float) - a) / L
            off = {"none": 0.0, "left": c0 * (1.0 - t), "right": c0 * t,
                   "both": c0}[mode]
            return base(x) + off

        def du(x, dbase=dbase, c0=c0, mode=mode, L=L):
            slope = {"none": 0.0, "left": -c0 / L, "right": c0 / L,
                     "both": 0.0}[mode]
            return dbase(x) + slope

        cases.append((u, du, a, a + L, expect))

    for u, du, a, b, expect in cases:
        for p in (1.0, 2.0, 4.0):
            rep = oned_zero_trace(u, a, b, p, du=du)
            assert rep.endpoints_zero == expect
            assert rep.member == (expect == (True, True))
            assert rep.sup <= rep.two_term_bound * (1.0 + 1e-9)
            assert rep.sup <= rep.collapsed_bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# 11. rearrangement invariants


def test_rearrangement_property_battery():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)

    def random_sample():
        m = int(rng.integers(1, 12))
        if rng.random() < 0.3:
            vals = rng.integers(0, 5, size=m) / 2.0  # force ties
        else:
            vals = rng.uniform(0.0, 50.0, size=m)
        meas = rng.uniform(1e-6, 10.0, size=m)
        return SampledFunction(values=np.asarray(vals, dtype=float),
                               measures=meas)

    for _ in range(1000):  # equimeasurability
        f = random_sample()
        r = rearrange(f)
        xi = float(rng.uniform(0.0, 55.0))
        direct = float(np.sum(f.measures[np.asarray(f.values) > xi]))
        assert math.isclose(r.level_measure(xi), direct,
                            rel_tol=1e-12, abs_tol=1e-15)

    for _ in range(1000):  # monotonicity
        f = random_sample()
        r = rearrange(f)
        ts = np.sort(rng.uniform(0.0, r.total_measure * (1 - 1e-9), size=4))
        vals = [r(t) for t in ts]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    for _ in range(1000):  # positive homogeneity, pointwise
        f = random_sample()
        c = float(rng.uniform(0.1, 10.0))
        g = SampledFunction(values=c * np.asarray(f.values),
                            measures=f.measures)
        rf, rg = rearrange(f), rearrange(g)
        t = float(rng.uniform(0.0, rf.total_measure * (1 - 1e-9)))
        assert math.isclose(rg(t), c * rf(t), rel_tol=1e-11, abs_tol=1e-15)

    for _ in range(1000):  # infimum characterization
        f = random_sample()
        r = rearrange(f)
        t = float(rng.uniform(0.0, r.total_measure * (1 - 1e-9)))
        feasible = [xi for xi in list(r.levels) + [0.0]
                    if r.level_measure(xi) <= t]
        assert r(t) == min(feasible)

    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 12. the `sobtrace verify` registry, every row at seed 0


@pytest.mark.parametrize("name", list(CHECKS))
def test_verify_registry(name):
    rows = CHECKS[name](0)
    assert rows
    for row in rows:
        assert row_ok(row), row
