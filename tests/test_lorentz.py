"""Unit tests for Lorentz quasinorms, models, and AC diagnostics."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sobtrace
from sobtrace.domains import gallery, rasterize
from sobtrace.lorentz import (
    AC_CONSISTENT,
    AC_VIOLATED_AT_INFINITY,
    INCONCLUSIVE,
    INF,
    DistributionModel,
    LorentzIndex,
    ac_diagnostic,
    conjugate_exponent,
    embedding_constant,
    holder_check,
    lebesgue_norm,
    lorentz_quasinorm,
    lorentz_quasinorm_distribution,
    model_weak_norm,
    sierpinski_counterexample,
    sierpinski_divergence_certificate,
    sierpinski_model,
    sierpinski_partial_integrals,
    sierpinski_threshold,
    weak_norm_tail,
    weak_tail_extrapolate,
)
from sobtrace.rearrangement import SampledFunction, rearrange
from sobtrace.traces import constant_function, ratio_field

ORACLE = SampledFunction.from_pairs([(3.0, 0.2), (1.0, 0.5), (2.0, 0.3)])


def random_sample(rng, max_size=40):
    m = int(rng.integers(1, max_size))
    return SampledFunction(
        values=rng.exponential(1.0, m), measures=rng.uniform(1e-4, 2.0, m)
    )


def lognormal_battery():
    """The seeded lognormal draws: 1000 (f, p, q) form cases, then 1000
    (f, p, q, r) embedding cases with q <= p, from one rng(19) stream."""
    rng = np.random.default_rng(19)

    def sample():
        m = int(rng.integers(1, 25))
        vals = np.abs(rng.lognormal(0.0, 1.2, size=m))
        meas = rng.uniform(1e-3, 2.0, size=m)
        return SampledFunction(values=vals, measures=meas)

    forms = []
    for _ in range(1000):
        f = sample()
        p = float(rng.uniform(1.0, 5.0))
        q = math.inf if rng.random() < 0.25 else float(rng.uniform(1.0, 8.0))
        forms.append((f, p, q))
    embeddings = []
    for _ in range(1000):
        f = sample()
        p = float(rng.uniform(1.0, 5.0))
        q = float(rng.uniform(1.0, p))
        r = math.inf if rng.random() < 0.25 else float(rng.uniform(q, 9.0))
        embeddings.append((f, p, q, r))
    return forms, embeddings


# ---------------------------------------------------------------------------
# quasinorm values


def test_l11_oracle_value():
    # integral of the rearrangement: 0.2*3 + 0.3*2 + 0.5*1
    assert math.isclose(lorentz_quasinorm(ORACLE, (1, 1)), 1.7, abs_tol=1e-14)


def test_weak_oracle_value():
    assert math.isclose(lorentz_quasinorm(ORACLE, (1, INF)), 1.0, abs_tol=1e-14)


def test_lpp_equals_lebesgue():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = random_sample(rng)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            q = lorentz_quasinorm(f, (p, p))
            assert math.isclose(q, lebesgue_norm(f, p), rel_tol=1e-11)


def test_quasinorm_accepts_steps_and_samples():
    r = rearrange(ORACLE)
    for idx in ((1, 1), (2, 3), (1.5, INF)):
        assert lorentz_quasinorm(ORACLE, idx) == lorentz_quasinorm(r, idx)


def test_form_equivalence_battery():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        f = random_sample(rng)
        p = float(rng.uniform(1.0, 8.0))
        q = float(rng.choice([1.0, rng.uniform(1.0, 8.0), INF]))
        a = lorentz_quasinorm(f, (p, q))
        b = lorentz_quasinorm_distribution(f, (p, q))
        worst = max(worst, abs(a - b) / max(a, b, 1e-300))
    assert worst <= 1e-10
    for f, p, q in lognormal_battery()[0]:
        a = lorentz_quasinorm(f, (p, q))
        b = lorentz_quasinorm_distribution(f, (p, q))
        assert abs(a - b) <= 1e-10 * max(1.0, a)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 20.0), st.floats(1e-5, 5.0)),
        min_size=1,
        max_size=25,
    ),
    st.floats(1.0, 6.0),
    st.one_of(st.floats(1.0, 6.0), st.just(INF)),
)
@settings(max_examples=150, deadline=None)
def test_form_equivalence_property(pairs, p, q):
    f = SampledFunction.from_pairs(pairs)
    a = lorentz_quasinorm(f, (p, q))
    b = lorentz_quasinorm_distribution(f, (p, q))
    assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-300)


def test_homogeneity():
    rng = np.random.default_rng(5)
    f = random_sample(rng)
    for c in (0.25, 3.0, 1e4):
        g = SampledFunction(values=f.values * c, measures=f.measures)
        for idx in ((1, 1), (2, INF), (3, 1.5)):
            assert math.isclose(
                lorentz_quasinorm(g, idx), c * lorentz_quasinorm(f, idx),
                rel_tol=1e-11,
            )


def test_zero_function_has_zero_quasinorm():
    z = SampledFunction(values=[0.0, 0.0], measures=[1.0, 2.0])
    assert lorentz_quasinorm(z, (2, 1)) == 0.0
    assert lorentz_quasinorm(z, (1, INF)) == 0.0


def test_index_validation():
    with pytest.raises(ValueError):
        LorentzIndex(0.5, 1.0)
    with pytest.raises(ValueError):
        lorentz_quasinorm(ORACLE, (1, 0.5))
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    with pytest.raises(ValueError):
        conjugate_exponent(0.9)


# ---------------------------------------------------------------------------
# embeddings and Hoelder


def test_embedding_constant_pinned_values():
    assert math.isclose(embedding_constant(2, 1, INF), 2.0, abs_tol=1e-15)
    assert math.isclose(embedding_constant(3, 1, 2), math.sqrt(3.0), rel_tol=1e-15)
    assert embedding_constant(2, INF, INF) == 1.0
    assert embedding_constant(4, 4, 4) == 1.0
    with pytest.raises(ValueError):
        embedding_constant(2, 3, 2)  # needs q <= r
    with pytest.raises(ValueError):
        embedding_constant(0.5, 1, 2)


def test_embedding_inequality_in_its_regime():
    # the constant (p/q)^(1/q - 1/r) dominates the classical one exactly
    # when q <= p, so the battery draws q from [1, p]
    rng = np.random.default_rng(17)
    for _ in range(200):
        f = random_sample(rng)
        p = float(rng.uniform(1.0, 6.0))
        q = float(rng.uniform(1.0, p))
        r = float(rng.choice([rng.uniform(q, 8.0), INF]))
        lhs = lorentz_quasinorm(f, (p, r))
        rhs = embedding_constant(p, q, r) * lorentz_quasinorm(f, (p, q))
        assert lhs <= rhs * (1.0 + 1e-12)
    for f, p, q, r in lognormal_battery()[1]:
        lhs = lorentz_quasinorm(f, (p, r))
        rhs = embedding_constant(p, q, r) * lorentz_quasinorm(f, (p, q))
        assert lhs <= rhs * (1.0 + 1e-9)


def test_embedding_flipped_constant_fails_for_q_above_p():
    # documents why the batteries restrict to q <= p: an indicator violates
    # the (p/q)-form constant at p = 1, q = 2, r = 3
    ind = SampledFunction(values=[1.0], measures=[1.0])
    lhs = lorentz_quasinorm(ind, (1, 3))
    rhs = embedding_constant(1, 2, 3) * lorentz_quasinorm(ind, (1, 2))
    assert lhs > rhs * (1.0 + 1e-9)


def test_weak_sup_bound_sharp_on_indicators():
    rng = np.random.default_rng(23)
    for _ in range(100):
        f = random_sample(rng)
        p = float(rng.uniform(1.0, 5.0))
        q = float(rng.uniform(1.0, 5.0))
        sup_part = lorentz_quasinorm(f, (p, INF))
        bound = (q / p) ** (1.0 / q) * lorentz_quasinorm(f, (p, q))
        assert sup_part <= bound * (1.0 + 1e-12)
    ind = SampledFunction(values=[2.0], measures=[0.7])
    for p, q in ((1.0, 1.0), (2.0, 3.0), (3.0, 1.5)):
        sup_part = lorentz_quasinorm(ind, (p, INF))
        bound = (q / p) ** (1.0 / q) * lorentz_quasinorm(ind, (p, q))
        assert math.isclose(sup_part, bound, rel_tol=1e-12)


def test_quasi_triangle_with_constant_two():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        meas = rng.uniform(0.01, 1.0, m)
        f = SampledFunction(values=rng.exponential(1.0, m), measures=meas)
        g = SampledFunction(values=rng.exponential(1.0, m), measures=meas)
        fg = SampledFunction(values=f.values + g.values, measures=meas)
        lhs = lorentz_quasinorm(fg, (1, INF))
        rhs = lorentz_quasinorm(f, (1, INF)) + lorentz_quasinorm(g, (1, INF))
        assert lhs <= 2.0 * rhs * (1.0 + 1e-12)


def test_holder_check():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        meas = rng.uniform(0.01, 1.0, m)
        f = SampledFunction(values=rng.exponential(1.0, m), measures=meas)
        g = SampledFunction(values=rng.exponential(1.0, m), measures=meas)
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0, INF]))
        lhs, rhs = holder_check(f, g, p)
        assert lhs <= rhs * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        holder_check(
            SampledFunction(values=[1.0], measures=[1.0]),
            SampledFunction(values=[1.0], measures=[2.0]),
            2.0,
        )


# ---------------------------------------------------------------------------
# weak tails, models, extrapolation


def test_weak_norm_tail_oracle():
    assert weak_norm_tail(ORACLE) == 1.0
    assert weak_norm_tail(ORACLE, xi_floor=1.5) == 1.0
    assert math.isclose(weak_norm_tail(ORACLE, xi_floor=2.5), 0.6, rel_tol=1e-12)
    with pytest.raises(ValueError):
        weak_norm_tail(ORACLE, xi_floor=-1.0)


def test_model_weak_norm_cube_and_ball():
    cube = gallery("cube2")
    model = cube.ratio_models["inv_d"]
    assert math.isclose(model_weak_norm(model, p=1.0), 4.0, rel_tol=1e-12)
    ball = gallery("punctured_ball2")
    bm = ball.ratio_models["hardy_ratio"]
    assert math.isclose(model_weak_norm(bm, p=1.0), math.pi, rel_tol=1e-9)
    assert math.isclose(
        model_weak_norm(bm, p=1.0, xi_lo=1.0), math.pi / 4.0, rel_tol=1e-9
    )
    assert math.isclose(weak_norm_tail(bm, xi_floor=1.0), math.pi / 4.0, rel_tol=1e-9)
    for n in (1, 3):
        analytic = model_weak_norm(gallery(f"cube{n}").ratio_models["inv_d"])
        assert abs(analytic - 2.0 * n) <= 1e-10 * 2.0 * n


def test_weak_tail_extrapolation_recovers_polynomials():
    model = DistributionModel(
        mu=lambda xi: 2.0 / xi - 0.5 / xi**2, total_measure=1.0
    )
    val = weak_tail_extrapolate(model, [8.0, 16.0], degree=1)
    assert math.isclose(val, 2.0, rel_tol=1e-12)
    val = weak_tail_extrapolate(model, [4.0, 8.0, 16.0], degree=2)
    assert math.isclose(val, 2.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        weak_tail_extrapolate(model, [8.0], degree=1)
    for bad in (0.0, -8.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            weak_tail_extrapolate(model, [bad, 16.0], degree=1)


_HUGE_PROBES = """
from sobtrace.lorentz import weak_tail_extrapolate
from sobtrace.rearrangement import SampledFunction

def fit(c):
    f = SampledFunction([1e130 * c, 1.0 * c], [1.0, 1.0])
    return weak_tail_extrapolate(f, [5e129 * c, 2.5e129 * c, 1.25e129 * c], 2)

print(repr(fit(1.0)), repr(2.0**400 * fit(2.0**-400)))
"""


def test_weak_tail_extrapolation_on_huge_probes():
    # 1/xi near 1e-130 once made the fit's column scaling underflow and
    # LAPACK spin; a fresh interpreter with a timeout fails instead of hanging
    src = str(Path(sobtrace.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _HUGE_PROBES], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.returncode == 0, run.stderr
    big, scaled = (float(x) for x in run.stdout.split())
    assert math.isfinite(big)
    assert big == scaled


# ---------------------------------------------------------------------------
# AC diagnostics


def test_ac_constant_is_consistent():
    f = SampledFunction(values=[1.0], measures=[1.0])
    rep = ac_diagnostic(f, p=1.0)
    assert rep.verdict == AC_CONSISTENT
    assert rep.limit_at_zero_estimate <= rep.threshold
    assert rep.limit_at_infinity_estimate <= rep.threshold


def test_ac_cube_model_violated_at_infinity():
    model = gallery("cube2").ratio_models["inv_d"]
    rep = ac_diagnostic(model, p=1.0)
    assert rep.verdict == AC_VIOLATED_AT_INFINITY
    assert math.isclose(rep.limit_at_infinity_estimate, 4.0, rel_tol=1e-9)
    kinds = {k for k, _, _ in rep.trend_samples}
    assert {"xi_zero", "xi_infinity", "t_zero"} <= kinds


def test_ac_ball_model_consistent():
    model = gallery("punctured_ball2").ratio_models["hardy_ratio"]
    rep = ac_diagnostic(model, p=1.0)
    assert rep.verdict == AC_CONSISTENT
    assert rep.limit_at_zero_estimate < 1e-3
    assert rep.limit_at_infinity_estimate < 1e-3


def test_ac_sampled_cube_grid_violated(cube2_g7, cube2_g8):
    for gd in (cube2_g7, cube2_g8):
        rep = ac_diagnostic(ratio_field(constant_function(gd)), p=1.0)
        assert rep.verdict == AC_VIOLATED_AT_INFINITY
        assert abs(rep.limit_at_infinity_estimate - 4.0) <= 0.2


def test_ac_cap_truncation_blocks_consistent_verdict():
    # bounded data whose top end would read consistent gets demoted to
    # INCONCLUSIVE when the value cap truncated the ladder
    f = SampledFunction(
        values=[1e-3, 1.0], measures=[1.0, 1e-9], value_cap=0.5
    )
    rep = ac_diagnostic(f, p=1.0)
    assert rep.verdict == INCONCLUSIVE
    assert any("value_cap" in note for note in rep.notes)


def _ladder(rep, kind):
    return [x for k, x, _ in rep.trend_samples if k == kind]


@pytest.mark.parametrize("f, inf_exps, zero_exps", [
    # capped: the infinity ladder ends at the cap 3, the zero ladder starts
    # one octave below the data max 8
    (SampledFunction(values=[8.0, 4.0, 2.0, 1.0], measures=[0.1, 0.2, 0.3, 0.4],
                     value_cap=3.0), range(-38, 2), range(2, -38, -1)),
    # 301 octaves of data: the zero end walks 270 steps past its 40 probes
    (SampledFunction(values=2.0 ** -np.arange(301.0), measures=2.0 ** np.arange(301.0)),
     range(-37, 3), range(-1, -311, -1)),
], ids=["capped", "octaves"])
def test_ac_sampled_ladders(f, inf_exps, zero_exps):
    rep = ac_diagnostic(f, p=1.0)
    assert _ladder(rep, "xi_infinity") == [2.0**j for j in inf_exps]
    assert _ladder(rep, "xi_zero") == [2.0**j for j in zero_exps]
    total = rearrange(f).total_measure
    assert _ladder(rep, "t_zero") == [total * 2.0**-j for j in range(1, 41)]
    assert _ladder(rep, "t_infinity") == [total]


def test_ac_model_ladders():
    rep = ac_diagnostic(sierpinski_model(2.0), p=2.0)
    # y_K = loglog(1/K) = 2 for p = 2, and the ladder runs y_K 2^{1..14}
    assert _ladder(rep, "xi_infinity") == pytest.approx([2.0**j for j in range(2, 16)],
                                                        rel=1e-14)
    assert _ladder(rep, "xi_zero") == [2.0**-j for j in range(1, 41)]
    assert _ladder(rep, "t_zero") == [2.0**-j for j in range(1, 41)]
    assert _ladder(rep, "t_infinity") == [1.0]


def test_model_tail_probe_is_the_infinity_ladder():
    ladder = [(10.0, 0.5), (20.0, 0.25), (40.0, 0.125)]
    model = DistributionModel(mu=lambda xi: min(1.0, 1.0 / xi), total_measure=1.0,
                              tail_probe=lambda p: [(x, p * v) for x, v in ladder])
    rep = ac_diagnostic(model, p=2.0)
    rows = [(x, v) for k, x, v in rep.trend_samples if k == "xi_infinity"]
    assert rows == [(x, 2.0 * v) for x, v in ladder]
    assert rep.limit_at_infinity_estimate == 0.25


def test_sweep_op_sorts_once(monkeypatch):
    # 32 quasinorm forms, the weak tail and the diagnostic read one sort
    rng = np.random.default_rng(11)
    f = SampledFunction(np.round(rng.lognormal(0.0, 1.5, 3000), 1),
                        rng.integers(1, 2**20, 3000) * 2.0**-20)
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(args[0].size)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    for p in (1.0, 1.5, 2.0, 7.0):
        for q in (1.0, 2.0, p, INF):
            lorentz_quasinorm(f, (p, q))
            lorentz_quasinorm_distribution(f, (p, q))
    weak_norm_tail(f)
    ac_diagnostic(f, p=1.0)
    assert sorts == [3000]


def test_ac_report_json_round_trip():
    rep = ac_diagnostic(SampledFunction(values=[1.0], measures=[1.0]), p=2.0)
    payload = json.loads(rep.to_json())
    assert payload["verdict"] == AC_CONSISTENT
    assert payload["p"] == 2.0


# ---------------------------------------------------------------------------
# the slowly-varying strictness example


def test_threshold_value():
    assert math.isclose(
        sierpinski_threshold(1.0), math.exp(-math.e), abs_tol=1e-18
    )
    assert sierpinski_threshold(1.0, total_measure=1e-3) == 1e-3
    with pytest.raises(ValueError):
        sierpinski_threshold(0.5)


def test_weak_tail_value_at_1e12():
    model = sierpinski_model(1.0)
    t = 1e-12
    target = 1.0 / math.log(math.log(1.0 / t))
    assert math.isclose(t * model.quantile(t), target, rel_tol=1e-12)
    assert abs(target - 0.30129) < 1e-4


def test_model_mu_inverts_the_quantile():
    model = sierpinski_model(1.0)
    for t in (1e-6, 1e-12, 1e-60):
        xi = model.quantile(t)
        assert math.isclose(model.mu(xi), t, rel_tol=1e-9)
    assert model.mu(0.0) == sierpinski_threshold(1.0)


def test_sampled_counterexample_is_valid_and_consistent():
    f = sierpinski_counterexample(1.0, n_cells=400)
    assert math.isclose(f.total_measure, 1.0, rel_tol=1e-9)
    assert np.all(f.values >= 0)
    rep = ac_diagnostic(f, p=1.0)
    assert rep.verdict == AC_CONSISTENT
    with pytest.raises(ValueError):
        sierpinski_counterexample(1.0, n_cells=4)


def test_model_ac_consistent_for_p1_and_p2():
    for p in (1.0, 2.0):
        rep = ac_diagnostic(sierpinski_model(p), p=p)
        assert rep.verdict == AC_CONSISTENT
        assert any("loglog" in note or "y =" in note for note in rep.notes)


def test_partial_integrals_grow_toward_zero():
    vals = sierpinski_partial_integrals(1.0, 1.0, [1e-4, 1e-8, 1e-12])
    assert vals[0] > 0
    assert vals[0] < vals[1] < vals[2]
    for p in (1.0, 2.0):
        for q in (1.0, 2.0, 4.0, 8.0):
            vals = sierpinski_partial_integrals(p, q, [1e-4, 1e-8, 1e-12])
            assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        sierpinski_partial_integrals(1.0, 1.0, [0.5])  # eps must sit below K


def test_divergence_certificates():
    for p in (1.0, 2.0):
        for q in (1.0, 2.0, 4.0, 8.0):
            cert = sierpinski_divergence_certificate(p, q)
            assert cert["strictly_increasing"]
            assert cert["log_growth"] > 10.0
            assert len(cert["log_increments"]) == 3
