"""Shared grids for the test suite.

The expensive rasterizations are session-scoped: several files probe the
same cube and punctured-ball grids, and rebuilding them per test would
dominate the suite's runtime.
"""

import pytest

from sobtrace.domains import gallery, rasterize


@pytest.fixture(scope="session")
def cube2_g7():
    return rasterize(gallery("cube2"), 2.0**-7)


@pytest.fixture(scope="session")
def cube2_g8():
    return rasterize(gallery("cube2"), 2.0**-8)


@pytest.fixture(scope="session")
def cube3_g6():
    return rasterize(gallery("cube3"), 2.0**-6)


@pytest.fixture(scope="session")
def pball2_g9():
    return rasterize(gallery("punctured_ball2"), 2.0**-9)


@pytest.fixture(scope="session")
def sky3_g6():
    return rasterize(gallery("skyscrapers", kmax=3), 2.0**-6)
