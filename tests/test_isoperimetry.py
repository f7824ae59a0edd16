"""Unit tests for grid perimeters, profile bounds, and the witness search."""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest

from sobtrace.domains import gallery, rasterize, rectangle
from sobtrace.isoperimetry import (
    GridSet,
    grid_perimeter,
    profile_search,
    rectangle_profile,
    rooms_passages_witness,
    skyscraper_profile_bound,
    superadditivity_check,
)


# ---------------------------------------------------------------------------
# grid perimeter


def test_half_cube_perimeter_is_exact():
    gd = rasterize(gallery("cube2"), 2.0**-5)
    mask = gd.centers()[..., 0] < 0.5
    E = GridSet(gd, mask)
    assert grid_perimeter(E) == 1.0
    assert E.measure == 0.5


def test_single_cell_perimeter():
    gd = rasterize(gallery("cube2"), 2.0**-5)
    mask = np.zeros_like(gd.occupancy)
    mask[12, 20] = True
    assert grid_perimeter(GridSet(gd, mask)) == 4.0 * 2.0**-5


def test_full_and_empty_sets_have_zero_relative_perimeter():
    gd = rasterize(gallery("cube2"), 2.0**-4)
    assert grid_perimeter(GridSet(gd, gd.occupancy.copy())) == 0.0
    assert grid_perimeter(GridSet(gd, np.zeros_like(gd.occupancy))) == 0.0


def test_boundary_faces_are_not_counted():
    # a corner cell touches the domain boundary on two sides; only the two
    # faces shared with interior cells contribute
    gd = rasterize(gallery("cube2"), 2.0**-4)
    mask = np.zeros_like(gd.occupancy)
    mask[0, 0] = True
    assert grid_perimeter(GridSet(gd, mask)) == 2.0 * 2.0**-4


def test_grid_set_validation():
    gd = rasterize(gallery("cube2"), 2.0**-4)
    with pytest.raises(ValueError, match="shape"):
        GridSet(gd, np.ones((3, 3), dtype=bool))
    gd2 = rasterize(gallery("skyscrapers", kmax=3), 2.0**-5)
    with pytest.raises(ValueError, match="outside"):
        GridSet(gd2, np.ones_like(gd2.occupancy))


# ---------------------------------------------------------------------------
# closed-form profiles


def test_rectangle_profile_disc_branch():
    prof = rectangle_profile(0.5, 0.05)
    assert math.isclose(prof.witness_perimeter, math.sqrt(math.pi * 0.05),
                        rel_tol=1e-15)
    assert math.isclose(prof.lower_bound, math.sqrt(0.05), rel_tol=1e-15)
    assert prof.witness["kind"] == "corner_quarter_disc"
    assert math.isclose(prof.witness["radius"],
                        2.0 * math.sqrt(0.05 / math.pi), rel_tol=1e-15)


def test_rectangle_profile_strip_branch():
    prof = rectangle_profile(0.5, 0.2)
    assert prof.witness_perimeter == 0.5
    assert prof.witness["kind"] == "vertical_strip"
    assert math.isclose(prof.witness["width"], 0.4, rel_tol=1e-15)


def test_rectangle_profile_branches_meet_continuously():
    a = 0.7
    s = a * a / math.pi
    prof = rectangle_profile(a, s)
    assert math.isclose(prof.witness_perimeter, a, rel_tol=1e-12)


def test_rectangle_profile_bound_touches_at_half():
    a = 0.37
    prof = rectangle_profile(a, a / 2.0)
    assert math.isclose(prof.witness_perimeter, a, rel_tol=1e-15)
    assert math.isclose(prof.lower_bound, a, rel_tol=1e-15)


def test_rectangle_profile_edge_cases():
    assert rectangle_profile(0.5, 0.0) == (0.0, 0.0, {"kind": "empty"})
    with pytest.raises(ValueError):
        rectangle_profile(1.5, 0.1)
    with pytest.raises(ValueError):
        rectangle_profile(0.5, 0.26)
    with pytest.raises(ValueError):
        rectangle_profile(0.5, -0.01)


def test_rectangle_profile_bound_below_witness():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.0, a / 2.0)
        prof = rectangle_profile(a, s)
        assert prof.lower_bound <= prof.witness_perimeter * (1 + 1e-12)
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = float(rng.uniform(0.05, 0.95))
        s = float(rng.uniform(0.0, 1.0)) * a / 2.0
        assert math.sqrt(2.0 * a * s) <= rectangle_profile(a, s).witness_perimeter


def test_skyscraper_profile_bound():
    assert math.isclose(skyscraper_profile_bound(1.0), 1.0 / math.sqrt(2.0),
                        rel_tol=1e-15)
    dom = gallery("skyscrapers", kmax=3)
    assert skyscraper_profile_bound(1.05, dom) == 1.05 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        skyscraper_profile_bound(0.0)
    with pytest.raises(ValueError):
        skyscraper_profile_bound(1.1, dom)  # above half the truncated measure


def test_rooms_witness_bracket_edge():
    s = math.pi * 2.0**-6
    w = rooms_passages_witness(s)
    assert w["k"] == 2
    assert w["cut_passage"] == 1
    assert w["perimeter"] == 2.0**-4
    assert math.isclose(w["quadratic_bound"], 2.0**-4, rel_tol=1e-12)
    assert w["tail_measure"] >= s


def test_rooms_witness_quadratic_bound_sweep():
    s_hi = math.pi * 2.0**-4 * 0.999
    for s in np.geomspace(1e-5, s_hi, 50):
        w = rooms_passages_witness(float(s), kmax=24)
        assert w["perimeter"] <= w["quadratic_bound"] * (1 + 1e-12)
        assert w["tail_measure"] >= s
        k = w["k"]
        assert math.pi * 4.0 ** -(k + 1) <= s < math.pi * 4.0**-k
    # down to four decades below the bracket top, against the bound
    # evaluated with 50-digit pi so float rounding cannot flip the sign
    s_hi = math.pi * 2.0**-4
    with mpmath.workdps(50):
        for s in np.geomspace(s_hi * 1e-4, s_hi * (1.0 - 1e-9), 50):
            w = rooms_passages_witness(float(s), kmax=24)
            bound = 256 * mpmath.mpf(float(s)) ** 2 / mpmath.pi**2
            assert mpmath.mpf(w["perimeter"]) <= bound
            assert w["tail_measure"] >= s


def test_rooms_witness_validation():
    with pytest.raises(ValueError):
        rooms_passages_witness(0.0)
    with pytest.raises(ValueError):
        rooms_passages_witness(math.pi / 16.0)
    with pytest.raises(ValueError, match="increase kmax"):
        rooms_passages_witness(1e-12, kmax=8)


# ---------------------------------------------------------------------------
# superadditivity on partitioned grids


def test_superadditivity_random_rectangles(sky3_g6):
    rng = np.random.default_rng(11)
    ni, nj = sky3_g6.occupancy.shape
    strict_seen = False
    for _ in range(200):
        i0, i1 = np.sort(rng.integers(0, ni + 1, size=2))
        j0, j1 = np.sort(rng.integers(0, nj + 1, size=2))
        mask = np.zeros_like(sky3_g6.occupancy)
        mask[i0:i1, j0:j1] = True
        mask &= sky3_g6.occupancy
        lhs, rhs = superadditivity_check(GridSet(sky3_g6, mask))
        assert lhs >= rhs
        strict_seen = strict_seen or lhs > rhs
    assert strict_seen
    # rectangles alternating with random masks
    rng = np.random.default_rng(7)
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


def test_superadditivity_strict_across_interface(sky3_g6):
    # the base-row cells right under a tower gain exactly the tower width
    h = sky3_g6.h
    centers = sky3_g6.centers()
    mask = (
        sky3_g6.occupancy
        & (centers[..., 1] > -h)
        & (centers[..., 1] < 0.0)
        & (centers[..., 0] > 0.5)
        & (centers[..., 0] < 0.5 + 2.0**-4)
    )
    assert mask.any()
    lhs, rhs = superadditivity_check(GridSet(sky3_g6, mask))
    assert math.isclose(lhs - rhs, 2.0**-4, rel_tol=1e-12)


def test_superadditivity_partition_validation(sky3_g6):
    E = GridSet(sky3_g6, np.zeros_like(sky3_g6.occupancy))
    parts = sky3_g6.domain.partition(sky3_g6)
    with pytest.raises(ValueError, match="overlap"):
        superadditivity_check(E, parts=[sky3_g6.occupancy, parts[0]])
    with pytest.raises(ValueError, match="cover"):
        superadditivity_check(E, parts=parts[:-1])
    with pytest.raises(ValueError, match="leaves"):
        superadditivity_check(E, parts=[np.ones_like(sky3_g6.occupancy)])


def test_superadditivity_needs_partition():
    gd = rasterize(gallery("cube2"), 2.0**-4)
    E = GridSet(gd, np.zeros_like(gd.occupancy))
    with pytest.raises(ValueError, match="partition"):
        superadditivity_check(E)


# ---------------------------------------------------------------------------
# profile search


@pytest.fixture(scope="module")
def rect_g7():
    return rasterize(rectangle(0.5), 2.0**-7)


def test_profile_search_picks_quarter_disc(rect_g7):
    pt = profile_search(rect_g7, 0.05)
    assert pt.witness["analytic"]
    assert math.isclose(pt.witness_perimeter, math.sqrt(math.pi * 0.05),
                        rel_tol=1e-12)
    assert math.isclose(pt.analytic_lower_bound, math.sqrt(0.05), rel_tol=1e-12)


def test_profile_search_strip_regime(rect_g7):
    pt = profile_search(rect_g7, 0.24)
    assert pt.witness_perimeter <= 0.5 + 4.0 * rect_g7.h
    assert pt.witness_perimeter >= pt.analytic_lower_bound - 4.0 * rect_g7.h


def test_profile_search_budget_never_hurts(rect_g7):
    base = profile_search(rect_g7, 0.11)
    refined = profile_search(rect_g7, 0.11, budget=200, seed=1)
    assert refined.witness_perimeter <= base.witness_perimeter * (1 + 1e-12)


def test_profile_search_skyscrapers(sky3_g6):
    bound = skyscraper_profile_bound(0.5, sky3_g6.domain)
    pt = profile_search(sky3_g6, 0.5)
    assert pt.witness_perimeter >= bound - 4.0 * sky3_g6.h
    assert pt.witness_perimeter <= 1.0 + 1e-9  # left vertical strip
    for s in (0.25, 1.0):
        bound = skyscraper_profile_bound(s, sky3_g6.domain)
        assert profile_search(sky3_g6, s).witness_perimeter >= bound - 4.0 * sky3_g6.h


def test_profile_search_meets_rectangle_profile():
    t0 = time.monotonic()
    h = 2.0**-8
    for a in (0.8, 0.5, 0.25):
        gd = rasterize(rectangle(a), h)
        for s in (a * a / (2.0 * math.pi), a * a / math.pi, a / 4.0, a / 2.0):
            psi = rectangle_profile(a, s).witness_perimeter
            found = profile_search(gd, s).witness_perimeter
            assert abs(found - psi) <= 4.0 * h
    assert time.monotonic() - t0 < 300.0


def test_profile_search_rooms_tail_cut():
    dom = gallery("rooms_and_passages", kmax=6)
    gd = rasterize(dom, 2.0**-6)
    pt = profile_search(gd, 0.01)
    assert pt.witness["analytic"]
    assert pt.witness["kind"] == "rooms_tail_cut_m4"
    assert pt.witness_perimeter == 2.0**-12


def test_profile_search_validation(rect_g7):
    with pytest.raises(ValueError):
        profile_search(rect_g7, 0.0)
    with pytest.raises(ValueError):
        profile_search(rect_g7, rect_g7.grid_measure)


def test_profile_search_raises_on_undercut():
    dom = dataclasses.replace(rectangle(0.5), profile_lower_bound=lambda s: 10.0)
    gd = rasterize(dom, 2.0**-6)
    with pytest.raises(RuntimeError, match="undercuts"):
        profile_search(gd, 0.24)
