"""Unit tests for grid calculus, truncation diagnostics, and 1-D traces."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from sobtrace import domains, lorentz, traces
from sobtrace.domains import gallery, rasterize
from sobtrace.lorentz import AC_VIOLATED_AT_INFINITY, lorentz_quasinorm
from sobtrace.rearrangement import rearrange
from sobtrace.traces import (
    CONSISTENT_WITH_ZERO_TRACE,
    INCONSISTENT_WITH_ZERO_TRACE,
    GridFunction,
    approximation_scheme,
    constant_function,
    distance_function,
    gradient_magnitude,
    hardy_pointwise_check,
    maximal_operator,
    oned_zero_trace,
    ratio_field,
    sample_function,
    sobolev_norm,
    weak_norm_estimate,
)


@pytest.fixture(scope="module")
def cube2_g6():
    return rasterize(gallery("cube2"), 2.0**-6)


@pytest.fixture(scope="module")
def pball2_g7():
    return rasterize(gallery("punctured_ball2"), 2.0**-7)


# ---------------------------------------------------------------------------
# grid functions and calculus


def test_grid_function_zeroes_outside(sky3_g6):
    u = sample_function(sky3_g6, lambda c: c[..., 0] + 2.0, "x+2")
    assert (u.values[~sky3_g6.occupancy] == 0.0).all()
    assert (u.values[sky3_g6.occupancy] != 0.0).all()


def test_grid_function_validation(cube2_g6):
    with pytest.raises(ValueError, match="shape"):
        GridFunction(cube2_g6, np.zeros((3, 3)))
    bad = np.ones(cube2_g6.occupancy.shape)
    bad[5, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GridFunction(cube2_g6, bad)


def test_gradient_exact_on_affine(cube2_g6):
    u = sample_function(cube2_g6, lambda c: 2.0 * c[..., 0] + 3.0 * c[..., 1])
    g = gradient_magnitude(u)
    occ = cube2_g6.occupancy
    assert np.allclose(g[occ], math.sqrt(13.0), rtol=1e-12)


def test_sobolev_norm_linear_profile():
    h = 2.0**-8
    gd = rasterize(gallery("cube1"), h)
    u = sample_function(gd, lambda c: c[..., 0], "x")
    sn = sobolev_norm(u, 2.0)
    # midpoint sums integrate x^2 with the exact -h^2/12 defect
    assert math.isclose(sn.lp, math.sqrt(1.0 / 3.0 - h * h / 12.0),
                        rel_tol=1e-12)
    assert sn.grad_lp == 1.0
    assert math.isclose(sn.w1p, math.sqrt(sn.lp**2 + 1.0), rel_tol=1e-15)
    sup = sobolev_norm(u, math.inf)
    assert math.isclose(sup.lp, 1.0 - h / 2.0, rel_tol=1e-12)
    assert sup.w1p == max(sup.lp, sup.grad_lp)
    with pytest.raises(ValueError):
        sobolev_norm(u, 0.5)


def test_distance_integral_over_square(cube2_g7_d):
    sn = sobolev_norm(cube2_g7_d, 1.0)
    assert math.isclose(sn.lp, 1.0 / 6.0, rel_tol=1e-3)


@pytest.fixture(scope="module")
def cube2_g7():
    return rasterize(gallery("cube2"), 2.0**-7)


@pytest.fixture(scope="module")
def cube2_g7_d(cube2_g7):
    return distance_function(cube2_g7)


# ---------------------------------------------------------------------------
# ratio field and weak norm


def test_ratio_field_of_distance_is_one(cube2_g7, cube2_g7_d):
    f = ratio_field(cube2_g7_d)
    assert np.allclose(np.asarray(f.values), 1.0, rtol=1e-12)
    assert f.value_cap == 1.0


def test_ratio_field_cap_tracks_trusted_layer(cube2_g7):
    f = ratio_field(constant_function(cube2_g7))
    assert f.value_cap == 1.0 / (2.5 * cube2_g7.h)


def test_ratio_field_needs_positive_distance(cube2_g6):
    broken = dataclasses.replace(
        cube2_g6, distance_field=np.zeros_like(cube2_g6.distance_field))
    with pytest.raises(ValueError, match="vanishes"):
        ratio_field(constant_function(broken))


def test_ratio_field_distribution_closed_forms(cube2_g8, pball2_g9):
    # 1/d on the unit square: xi mu(xi) = xi (1 - (1 - 2/xi)^2)
    r = rearrange(ratio_field(constant_function(cube2_g8)))
    for xi in (4.0, 8.0, 16.0, 32.0):
        closed = xi * (1.0 - (1.0 - 2.0 / xi) ** 2)
        assert abs(xi * r.level_measure(xi) - closed) <= 0.01 * closed
    # (1 - |x|)/d on the punctured disc: mu(xi) = pi / (xi + 1)^2
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


def test_weak_norm_recovers_cube_values(cube2_g7, cube2_g8, cube3_g6):
    t0 = time.monotonic()
    est = weak_norm_estimate(constant_function(cube2_g7))
    assert math.isclose(est.estimate, 4.0, rel_tol=1e-9)
    assert est.extrapolated is not None
    gd1 = rasterize(gallery("cube1"), 2.0**-8)
    assert math.isclose(weak_norm_estimate(constant_function(gd1)).estimate,
                        2.0, rel_tol=1e-9)
    gd3 = rasterize(gallery("cube3"), 2.0**-5)
    assert math.isclose(weak_norm_estimate(constant_function(gd3)).estimate,
                        6.0, rel_tol=1e-9)
    for n, gd in ((2, cube2_g8), (3, cube3_g6)):
        sampled = weak_norm_estimate(constant_function(gd)).estimate
        assert abs(sampled - 2.0 * n) <= 0.02 * 2.0 * n
    assert time.monotonic() - t0 < 60.0


def test_weak_norm_without_boundary_layer(cube2_g7_d):
    est = weak_norm_estimate(cube2_g7_d)
    # u = d has ratio field 1, no tail: the raw supremum is the measure
    assert est.estimate == 1.0
    assert est.raw_sup == 1.0
    assert est.extrapolated is None


def test_weak_norm_estimate_rearranges_once(monkeypatch, cube2_g6):
    calls = []

    def counted(f):
        calls.append(f)
        return rearrange(f)

    monkeypatch.setattr(traces, "rearrange", counted)
    monkeypatch.setattr(lorentz, "rearrange", counted)
    est = weak_norm_estimate(constant_function(cube2_g6), p=1.0)
    assert est.extrapolated is not None
    assert len(calls) == 1


def test_weak_norm_punctured_ball(pball2_g9):
    est = weak_norm_estimate(constant_function(pball2_g9))
    assert abs(est.estimate - 2.0 * math.pi) <= 0.05 * 2.0 * math.pi


def test_weak_norm_validation(cube2_g6):
    with pytest.raises(ValueError):
        weak_norm_estimate(constant_function(cube2_g6), p=math.inf)


# ---------------------------------------------------------------------------
# truncation and the approximation scheme


def test_scheme_zero_residuals_for_distance(cube2_g8):
    rep = approximation_scheme(distance_function(cube2_g8), 2.0)
    assert rep.verdict == CONSISTENT_WITH_ZERO_TRACE
    assert all(r[1] == 0.0 for r in rep.rows if r[0] >= 1.0)


def test_scheme_consistent_for_subcritical_multiple(cube2_g8):
    u = GridFunction(cube2_g8, 1.9 * cube2_g8.distance_field, "1.9d")
    rep = approximation_scheme(u, 2.0)
    assert rep.verdict == CONSISTENT_WITH_ZERO_TRACE
    assert rep.rows[-1][1] == 0.0
    # a variable multiple (1 + 0.9 x) d: the excess dies out over the k ladder
    phi_d = sample_function(
        cube2_g8,
        lambda c: (1.0 + 0.9 * c[..., 0]) * cube2_g8.distance_field, "phi*d")
    rep = approximation_scheme(phi_d, 2.0)
    assert rep.verdict == CONSISTENT_WITH_ZERO_TRACE
    rows = rep.rows
    assert rows[0][0] == 1.0 and rows[-1][0] == 1024.0
    assert rows[0][3] > 0.0
    assert rows[-1][3] <= rows[0][3] / 100.0


def test_scheme_flags_constant(cube2_g8):
    rep = approximation_scheme(constant_function(cube2_g8), 1.0)
    assert rep.verdict == INCONSISTENT_WITH_ZERO_TRACE
    valid = [r for r in rep.rows if not r[4]]
    # k mu(E_k) climbs monotonically toward the weak norm of 1/d
    assert abs(valid[-1][3] - 4.0) <= 0.05 * 4.0
    kmus = [r[3] for r in valid]
    assert kmus == sorted(kmus)


def test_scheme_flags_puncture_singularity(pball2_g9):
    u = sample_function(pball2_g9,
                        lambda c: 1.0 - np.sqrt((c**2).sum(axis=-1)), "1-r")
    rep = approximation_scheme(u, 3.0)
    assert rep.verdict == INCONSISTENT_WITH_ZERO_TRACE


def test_scheme_reports_ac_in_weak_l1(pball2_g7):
    # u = 1 - |x| lies in W^{1,2}_0: the criterion space L^{1,inf}_a does
    # not depend on p, so neither does the scheme's ac report
    u = sample_function(pball2_g7,
                        lambda c: 1.0 - np.sqrt((c**2).sum(axis=-1)), "1-r")
    rep = approximation_scheme(u, 2.0)
    assert rep.ac.p == 1.0
    assert rep.ac.verdict != AC_VIOLATED_AT_INFINITY


def test_scheme_resolution_flags(cube2_g6):
    rep = approximation_scheme(constant_function(cube2_g6), 1.0)
    k_resolve = 1.0 / (2.0 * cube2_g6.h)
    assert all((r[0] > k_resolve) == bool(r[4]) for r in rep.rows)
    assert any(r[4] for r in rep.rows)
    assert any("below grid resolution" in n for n in rep.notes)


def test_scheme_report_serialization(cube2_g6):
    rep = approximation_scheme(constant_function(cube2_g6), 1.0)
    assert [r[0] for r in rep.rows] == [2.0**j for j in range(11)]
    text = rep.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "k,res_w1p,measure_Ek,k_mu_pow,resolution_limited"
    assert len(lines) == 12
    payload = json.loads(rep.to_json())
    assert payload["verdict"] == rep.verdict
    assert payload["ac"]["verdict"] == rep.ac.verdict
    assert payload["sobolev"] == rep.sobolev._asdict()
    assert len(payload["rows"]) == 11


def test_scheme_builds_and_sorts_the_ratio_field_once(monkeypatch, cube2_g6):
    u = constant_function(cube2_g6)
    expected = weak_norm_estimate(u, p=1.0).estimate
    fields = []
    sorts = []
    argsort = np.argsort

    def counted_field(u):
        fields.append(u)
        return ratio_field(u)

    def counted_sort(*args, **kwargs):
        sorts.append(args[0].size)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(traces, "ratio_field", counted_field)
    monkeypatch.setattr(np, "argsort", counted_sort)
    rep = approximation_scheme(u, p=2.0)
    assert rep.weak_norm == expected
    assert len(fields) == 1
    assert sorts == [int(cube2_g6.occupancy.sum())]


def test_scheme_validation(cube2_g6):
    c = constant_function(cube2_g6)
    with pytest.raises(ValueError):
        approximation_scheme(c, math.inf)
    neg = sample_function(cube2_g6, lambda x: x[..., 0] - 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        approximation_scheme(neg, 1.0)


# ---------------------------------------------------------------------------
# maximal operator and the pointwise distance bound


def test_maximal_of_constant_is_constant(cube2_g6):
    M = maximal_operator(constant_function(cube2_g6), 0.1)
    assert np.allclose(M.values[cube2_g6.occupancy], 1.0, atol=1e-12)


def test_maximal_dominates_and_is_monotone(cube2_g6):
    rng = np.random.default_rng(0)
    u = GridFunction(cube2_g6, rng.uniform(size=cube2_g6.occupancy.shape))
    M_all = maximal_operator(u, 0.1)
    M_dy = maximal_operator(u, 0.1, radii="dyadic")
    M_small = maximal_operator(u, 0.05)
    assert (M_all.values >= u.values - 1e-12).all()
    assert (M_dy.values <= M_all.values + 1e-12).all()
    assert (M_small.values <= M_all.values + 1e-12).all()


def test_maximal_per_cell_radius(cube2_g6):
    u = constant_function(cube2_g6)
    M = maximal_operator(u, 2.0 * cube2_g6.distance_field)
    assert np.allclose(M.values[cube2_g6.occupancy], 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="shape"):
        maximal_operator(u, np.ones((3, 3)))
    with pytest.raises(ValueError, match="radii"):
        maximal_operator(u, 0.1, radii="triadic")


def test_hardy_pointwise_for_distance(cube2_g6):
    report = hardy_pointwise_check(distance_function(cube2_g6))
    assert report["factor"] == 2.0
    assert report["cells"] > 0
    # |d| <= C d M|grad d| with a modest constant: M|grad d| is near 1
    assert 0.9 <= report["constant_estimate"] <= 4.0


# ---------------------------------------------------------------------------
# one-dimensional endpoint diagnostics


def test_oned_sine_is_zero_trace():
    rep = oned_zero_trace(lambda x: np.sin(math.pi * x), 0.0, 1.0, 2.0,
                          du=lambda x: math.pi * np.cos(math.pi * x))
    assert rep.member
    assert rep.endpoints_zero == (True, True)
    assert math.isclose(rep.sup, 1.0, rel_tol=1e-6)
    assert math.isclose(rep.lp_norm, math.sqrt(0.5), rel_tol=1e-6)
    assert math.isclose(rep.dlp_norm, math.pi * math.sqrt(0.5), rel_tol=1e-6)
    assert rep.sup <= rep.two_term_bound
    assert rep.sup <= rep.collapsed_bound
    assert json.loads(rep.to_json())["member"] is True


def test_oned_ramp_keeps_right_endpoint():
    rep = oned_zero_trace(lambda x: np.asarray(x, dtype=float), 0.0, 1.0, 2.0,
                          du=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert rep.endpoints_zero[0]
    assert not rep.endpoints_zero[1]
    assert not rep.member
    assert math.isclose(rep.endpoint_estimates[1], 1.0, rel_tol=1e-9)


def test_oned_power_sum_bound_can_fail():
    rep = oned_zero_trace(
        lambda x: 1.0 + 0.1 * np.sin(math.pi * x), 0.0, 1.0, 2.0,
        du=lambda x: 0.1 * math.pi * np.cos(math.pi * x))
    assert not rep.power_sum_holds
    assert rep.sup > rep.power_sum_bound
    assert rep.sup <= rep.collapsed_bound  # the plain-sum form still holds


def test_oned_sup_bounds_random_battery():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.uniform(-1.0, 1.0)
        L = rng.choice([0.5, 1.0, 2.0])
        b = a + L
        coeffs = rng.normal(size=3)
        shift = rng.uniform(-1.0, 1.0)

        def u(x, c=coeffs, s=shift, a=a, L=L):
            t = (np.asarray(x, dtype=float) - a) / L
            return s + sum(ck * np.sin((k + 1) * math.pi * t)
                           for k, ck in enumerate(c))

        def du(x, c=coeffs, a=a, L=L):
            t = (np.asarray(x, dtype=float) - a) / L
            return sum(ck * (k + 1) * math.pi / L * np.cos((k + 1) * math.pi * t)
                       for k, ck in enumerate(c))

        for p in (1.0, 2.0, 4.0):
            rep = oned_zero_trace(u, a, b, p, du=du)
            assert rep.sup <= rep.two_term_bound * (1 + 1e-9)
            assert rep.sup <= rep.collapsed_bound * (1 + 1e-9)


def test_oned_endpoint_classification_battery():
    # sine sums that vanish at both ends, plus a nonzero affine part that
    # keeps the left end, the right end, or both
    rng = np.random.default_rng(23)
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

        def u(x, a=a, L=L, c1=c1, c2=c2, c0=c0, mode=mode):
            t = (np.asarray(x, dtype=float) - a) / L
            off = {"none": 0.0, "left": c0 * (1.0 - t), "right": c0 * t,
                   "both": c0}[mode]
            return c1 * np.sin(math.pi * t) + c2 * np.sin(2.0 * math.pi * t) + off

        def du(x, a=a, L=L, c1=c1, c2=c2, c0=c0, mode=mode):
            t = (np.asarray(x, dtype=float) - a) / L
            slope = {"none": 0.0, "left": -c0 / L, "right": c0 / L,
                     "both": 0.0}[mode]
            return (c1 * math.pi * np.cos(math.pi * t)
                    + c2 * 2.0 * math.pi * np.cos(2.0 * math.pi * t)) / L + slope

        for p in (1.0, 2.0, 4.0):
            rep = oned_zero_trace(u, a, a + L, p, du=du)
            assert rep.endpoints_zero == expect
            assert rep.member == (expect == (True, True))
            assert rep.sup <= rep.two_term_bound * (1.0 + 1e-9)
            assert rep.sup <= rep.collapsed_bound * (1.0 + 1e-9)


def test_oned_validation():
    with pytest.raises(ValueError):
        oned_zero_trace(np.sin, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        oned_zero_trace(np.sin, 0.0, 1.0, math.inf)


# ---------------------------------------------------------------------------
# exponents, thresholds and radii that are not numbers in range

NAN = math.nan
BAD_INPUTS = {
    "ac_diagnostic(p=nan)": lambda u: lorentz.ac_diagnostic(ratio_field(u), NAN),
    "weak_norm_estimate(p=nan)": lambda u: weak_norm_estimate(u, NAN),
    "sobolev_norm(p=nan)": lambda u: sobolev_norm(u, NAN),
    "approximation_scheme(p=nan)": lambda u: approximation_scheme(u, NAN),
    "oned_zero_trace(p=nan)": lambda u: oned_zero_trace(np.sin, 0.0, 1.0, NAN),
    "weak_norm_tail(p=nan)": lambda u: lorentz.weak_norm_tail(ratio_field(u), p=NAN),
    "weak_norm_tail(p=0.5)": lambda u: lorentz.weak_norm_tail(ratio_field(u), p=0.5),
    "model_weak_norm(p=nan)": lambda u: lorentz.model_weak_norm(
        u.parent.domain.ratio_models["inv_d"], p=NAN),
    "embedding_constant(p=nan)": lambda u: lorentz.embedding_constant(NAN, 1.0, 2.0),
    "sierpinski_threshold(p=nan)": lambda u: lorentz.sierpinski_threshold(NAN),
    "sierpinski_partial_integrals(q=nan)":
        lambda u: lorentz.sierpinski_partial_integrals(1.0, NAN, [1e-4]),
    "weak_norm_tail(xi_floor=nan)":
        lambda u: lorentz.weak_norm_tail(ratio_field(u), xi_floor=NAN),
    "weak_norm_tail(xi_floor=inf)":
        lambda u: lorentz.weak_norm_tail(ratio_field(u), xi_floor=math.inf),
    "ball_portion_scan(b_threshold=nan)":
        lambda u: domains.ball_portion_scan(u.parent.domain, b_threshold=NAN),
    "ball_portion_scan(b_threshold=inf)":
        lambda u: domains.ball_portion_scan(u.parent.domain, b_threshold=math.inf),
    "ball_portion_ratio(r=nan)":
        lambda u: domains.ball_portion_ratio(u.parent.domain, (0.5, 0.0), NAN),
    "ball_portion_ratio(r=inf)":
        lambda u: domains.ball_portion_ratio(u.parent.domain, (0.5, 0.0), math.inf),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_inputs_raise(cube2_g6, case):
    with pytest.raises(ValueError):
        BAD_INPUTS[case](constant_function(cube2_g6))
