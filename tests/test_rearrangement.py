"""Unit tests for measure-weighted samples and their rearrangements."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobtrace.rearrangement import (
    SampledFunction,
    StepRearrangement,
    distribution,
    rearrange,
)

ORACLE = [(3.0, 0.2), (1.0, 0.5), (2.0, 0.3)]


# ---------------------------------------------------------------------------
# pinned oracles


def test_rearrangement_oracle_steps():
    f = SampledFunction.from_pairs(ORACLE)
    r = rearrange(f)
    assert r.levels.tolist() == [3.0, 2.0, 1.0]
    assert r.breakpoints.tolist() == [0.0, 0.2, 0.5, 1.0]
    assert r.total_measure == 1.0


def test_distribution_oracle():
    f = SampledFunction.from_pairs(ORACLE)
    assert distribution(f, 0.0) == 1.0
    assert distribution(f, 1.0) == 0.5
    assert distribution(f, 1.5) == 0.5
    assert distribution(f, 2.0) == 0.2
    assert distribution(f, 3.0) == 0.0
    assert distribution(f, 10.0) == 0.0


def test_evaluation_is_right_open():
    r = rearrange(SampledFunction.from_pairs(ORACLE))
    assert r(0.0) == 3.0
    assert r(0.19) == 3.0
    assert r(0.2) == 2.0
    assert r(0.49) == 2.0
    assert r(0.5) == 1.0
    assert r(0.99) == 1.0
    assert r(0.3) == 2.0


def test_level_measure_matches_distribution():
    f = SampledFunction.from_pairs(ORACLE)
    r = rearrange(f)
    for xi in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert r.level_measure(xi) == distribution(f, xi)
    assert r.level_measure(math.inf) == 0.0
    # tied data with zeros: at every level and one ulp either side of it
    rng = np.random.default_rng(8)
    values = np.concatenate((np.round(rng.lognormal(0.0, 1.5, 400), 1), [0.0, 0.0]))
    f = SampledFunction(values, rng.integers(1, 2**20, values.size) * 2.0**-20)
    r = rearrange(f)
    for level in r.levels:
        for xi in (np.nextafter(level, -math.inf), level, np.nextafter(level, math.inf)):
            if xi >= 0:
                assert r.level_measure(xi) == distribution(f, xi)


def test_tied_values_merge_into_one_step():
    f = SampledFunction.from_pairs([(2.0, 0.1), (1.0, 0.2), (2.0, 0.3)])
    r = rearrange(f)
    assert r.levels.tolist() == [2.0, 1.0]
    assert np.allclose(r.breakpoints, [0.0, 0.4, 0.6])


def test_zero_values_form_trailing_step():
    f = SampledFunction.from_pairs([(0.0, 0.5), (1.0, 0.25), (0.0, 0.25)])
    r = rearrange(f)
    assert r.levels.tolist() == [1.0, 0.0]
    assert np.allclose(r.breakpoints, [0.0, 0.25, 1.0])
    assert r(0.9) == 0.0


def test_identity_map_rearranges_to_its_mirror():
    # f(x) = x on (0,1), sampled at cell centers: f*(t) = 1 - t up to one cell
    h = 2.0**-12
    centers = (np.arange(int(1 / h)) + 0.5) * h
    f = SampledFunction(values=centers, measures=np.full(centers.shape, h))
    r = rearrange(f)
    ts = np.linspace(0.0, 1.0 - h, 500)
    vals = np.array([r(t) for t in ts])
    assert np.max(np.abs(vals - (1.0 - ts))) <= h + 1e-15


# ---------------------------------------------------------------------------
# validation


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(values=np.array([]), measures=np.array([]))
    with pytest.raises(ValueError):
        SampledFunction(values=[1.0], measures=[1.0, 2.0])
    with pytest.raises(ValueError):
        SampledFunction(values=[-1.0], measures=[1.0])
    with pytest.raises(ValueError):
        SampledFunction(values=[1.0], measures=[0.0])
    with pytest.raises(ValueError):
        SampledFunction(values=[np.inf], measures=[1.0])
    with pytest.raises(ValueError):
        SampledFunction(values=[1.0], measures=[1.0], total_measure=2.0)
    f = SampledFunction(values=[1.0], measures=[1.0], total_measure=1.0)
    assert f.total_measure == 1.0


def test_step_rearrangement_validation():
    with pytest.raises(ValueError):
        StepRearrangement(np.array([0.1, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        StepRearrangement(np.array([0.0, 1.0, 0.5]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        StepRearrangement(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StepRearrangement(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))


def test_evaluation_domain_errors():
    r = rearrange(SampledFunction.from_pairs(ORACLE))
    with pytest.raises(ValueError):
        r(-0.1)
    with pytest.raises(ValueError):
        r(1.0)
    with pytest.raises(ValueError):
        r.level_measure(-1.0)
    with pytest.raises(ValueError):
        r.level_measure(math.nan)
    with pytest.raises(ValueError):
        distribution(SampledFunction.from_pairs(ORACLE), -2.0)


# ---------------------------------------------------------------------------
# the one-slot cache and read-only samples


def test_rearrange_returns_the_cached_object():
    f = SampledFunction.from_pairs(ORACLE)
    assert rearrange(f) is rearrange(f)


def test_rearrangement_slot_holds_one_live_function():
    f = SampledFunction.from_pairs(ORACLE)
    ref = weakref.ref(rearrange(f))
    assert ref() is not None  # kept while f lives
    del f
    assert ref() is None  # freed with f
    g = SampledFunction.from_pairs(ORACLE)
    ref = weakref.ref(rearrange(g))
    rearrange(SampledFunction.from_pairs(ORACLE[:2]))
    assert ref() is None  # evicted by the next function


@pytest.mark.parametrize("attr", ["values", "measures", "levels", "breakpoints"])
def test_sample_and_step_arrays_are_read_only(attr):
    f = SampledFunction.from_pairs(ORACLE)
    owner = f if attr in ("values", "measures") else rearrange(f)
    with pytest.raises(ValueError):
        getattr(owner, attr)[0] = 9.0


def test_sampled_function_copies_its_source():
    values = np.array([3.0, 1.0])
    measures = np.array([1.0, 2.0])
    f = SampledFunction(values, measures)
    r = rearrange(f)
    values[0] = 9.0
    measures[1] = 5.0
    assert f.values.tolist() == [3.0, 1.0]
    assert f.measures.tolist() == [1.0, 2.0]
    assert rearrange(f) is r and r.levels.tolist() == [3.0, 1.0]


# ---------------------------------------------------------------------------
# CSV round trips


def test_sample_csv_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    f = SampledFunction(values=rng.exponential(1.0, 17),
                        measures=rng.uniform(0.001, 3.0, 17), label="x")
    g = SampledFunction.from_csv(f.to_csv(), label="x")
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.measures, g.measures)


def test_step_csv_roundtrip_is_exact():
    r = rearrange(SampledFunction.from_pairs(ORACLE))
    r2 = StepRearrangement.from_csv(r.to_csv())
    assert np.array_equal(r.breakpoints, r2.breakpoints)
    assert np.array_equal(r.levels, r2.levels)


def test_csv_header_is_checked():
    with pytest.raises(ValueError):
        SampledFunction.from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        StepRearrangement.from_csv("value,measure\n0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        SampledFunction.from_csv("value,measure\n1\n")
    with pytest.raises(ValueError, match="line 3"):
        StepRearrangement.from_csv("t_break,level\n0.5,2\n1\n")


# ---------------------------------------------------------------------------
# property tests

sample_sets = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 6).map(lambda k: k / 2.0),  # forces ties
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        ),
        st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


@given(sample_sets, st.floats(0.0, 60.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_equimeasurability_property(pairs, xi):
    f = SampledFunction.from_pairs(pairs)
    r = rearrange(f)
    assert math.isclose(
        distribution(f, xi), r.level_measure(xi), rel_tol=1e-12, abs_tol=1e-15
    )


@given(sample_sets)
@settings(max_examples=200, deadline=None)
def test_rearrangement_structure_property(pairs):
    f = SampledFunction.from_pairs(pairs)
    r = rearrange(f)
    assert r.breakpoints[0] == 0.0
    assert np.all(np.diff(r.breakpoints) > 0)
    assert np.all(np.diff(r.levels) < 0)
    assert math.isclose(r.total_measure, f.total_measure, rel_tol=1e-12)
    ts = np.linspace(0.0, r.total_measure * (1 - 1e-12), 37)
    vals = np.array([r(t) for t in ts])
    assert np.all(np.diff(vals) <= 0)


@given(sample_sets, st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_scaling_equivariance_property(pairs, c):
    f = SampledFunction.from_pairs(pairs)
    g = SampledFunction(values=f.values * c, measures=f.measures)
    rf, rg = rearrange(f), rearrange(g)
    # scaling can merge steps when c * v collides; compare pointwise instead
    ts = np.linspace(0.0, f.total_measure * (1 - 1e-12), 23)
    for t in ts:
        assert math.isclose(rg(t), c * rf(t), rel_tol=1e-11, abs_tol=1e-14)


@given(sample_sets, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_permutation_invariance_property(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    rf = rearrange(SampledFunction.from_pairs(pairs))
    rg = rearrange(SampledFunction.from_pairs(shuffled))
    assert np.array_equal(rf.levels, rg.levels)
    assert np.allclose(rf.breakpoints, rg.breakpoints, rtol=1e-12, atol=1e-15)


@given(sample_sets)
@settings(max_examples=100, deadline=None)
def test_infimum_characterization_property(pairs):
    # f*(t) = inf{xi : mu(xi) <= t}, computed here by brute force over levels
    f = SampledFunction.from_pairs(pairs)
    r = rearrange(f)
    candidates = np.concatenate(([0.0], np.unique(f.values)))
    for t in np.linspace(0.0, f.total_measure * (1 - 1e-12), 11):
        feasible = [xi for xi in candidates if distribution(f, xi) <= t]
        assert r(t) == min(feasible)
