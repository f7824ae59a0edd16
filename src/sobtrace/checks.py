"""The pinned checks behind ``sobtrace verify``, by id in run order.

Each check maps a seed to rows ``(quantity, measured, relation, bound)``;
it passes when ``row_ok`` holds on every row.  A sweep over many inputs
reports its worst case in one row.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import domains, isoperimetry, lorentz, rearrangement, traces

__all__ = ["CHECKS", "row_ok"]

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def row_ok(row) -> bool:
    """Whether ``measured relation bound`` holds for one row."""
    _, measured, relation, bound = row
    return bool(_RELATIONS[relation](measured, bound))


def cube_weak_norm(seed):
    rows = []
    for n, h in ((1, 2.0**-7), (2, 2.0**-7), (3, 2.0**-5)):
        gd = domains.rasterize(domains.unit_cube(n), h)
        est = traces.weak_norm_estimate(traces.constant_function(gd, 1.0), p=1.0)
        rel = abs(est.estimate - 2.0 * n) / (2.0 * n)
        rows.append((f"N={n}: |weak norm of 1/d - 2N| / 2N", rel, "<=", 0.02))
    return rows


def cube_distribution_tail(seed):
    gd = domains.rasterize(domains.unit_cube(2), 2.0**-8)
    f = traces.ratio_field(traces.constant_function(gd, 1.0))
    model = domains.unit_cube(2).ratio_models["inv_d"]
    err = max(abs(rearrangement.distribution(f, xi) - model.mu(xi))
              for xi in (8.0, 16.0, 32.0))
    return [("max |grid mu - closed form| at xi = 8, 16, 32", err, "<=", 1e-12)]


def punctured_ball_ratio(seed):
    model = domains.punctured_ball(2).ratio_models["hardy_ratio"]
    tail = lorentz.weak_norm_tail(model, xi_floor=1.0, p=1.0)
    full = lorentz.weak_norm_tail(model, p=1.0)
    return [("|sup_{xi >= 1} xi mu(xi) - pi/4|", abs(tail - math.pi / 4.0), "<=", 1e-9),
            ("|sup xi mu(xi) - pi|", abs(full - math.pi), "<=", 1e-6)]


def rectangle_profile_search(seed):
    a = 0.5
    gd = domains.rasterize(domains.rectangle(a), 2.0**-7)
    rows = []
    for s in (0.3 * a * a / math.pi, 0.2 * a / 2.0, a / 2.0):
        found = isoperimetry.profile_search(gd, s).witness_perimeter
        ref = isoperimetry.rectangle_profile(a, s)
        rows.append((f"s={s:.4g}: perimeter vs lower bound - 4h",
                     found, ">=", ref.lower_bound - 4.0 * gd.h))
        rows.append((f"s={s:.4g}: perimeter vs exact profile + 4h",
                     found, "<=", ref.witness_perimeter + 4.0 * gd.h))
    return rows


def skyscrapers_profile(seed):
    dom = domains.skyscrapers(kmax=3)
    gd = domains.rasterize(dom, 2.0**-6)
    exact = abs(gd.grid_measure - dom.measure)
    found = isoperimetry.profile_search(gd, 0.5).witness_perimeter
    bound = isoperimetry.skyscraper_profile_bound(0.5, dom)
    return [("|grid measure - measure|", exact, "<=", 1e-12),
            ("s=0.5: perimeter vs profile bound", found, ">=", bound),
            ("s=0.5: perimeter vs 1 + 4h", found, "<=", 1.0 + 4.0 * gd.h)]


def squares_stack_portion(seed):
    dom = domains.squares_stack(kmax=8)
    report = domains.ball_portion_scan(dom, mc_samples=20000, seed=seed)
    return [("verdict", report.verdict, "==", domains.VIOLATED_SEQUENCE_FOUND),
            ("violating sequence length", len(report.violating_sequence), ">=", 3)]


def rooms_witness_bound(seed):
    ss = np.geomspace(1e-6, math.pi * 2.0**-4 * 0.999, 25)
    ws = [isoperimetry.rooms_passages_witness(float(s), kmax=16) for s in ss]
    margin = min(w["tail_measure"] - s for w, s in zip(ws, ss))
    ratio = max(w["perimeter"] / w["quadratic_bound"] for w in ws)
    return [("min over 25 s of tail measure - s", margin, ">=", 0.0),
            ("max over 25 s of perimeter / quadratic bound", ratio, "<=", 1.0 + 1e-12)]


def lorentz_form_equivalence(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        m = rng.integers(1, 40)
        vals = np.round(rng.exponential(2.0, m), 3)
        meas = rng.uniform(0.01, 2.0, m)
        f = rearrangement.SampledFunction(vals, meas)
        for p in (1.0, 1.5, 2.0, 7.0):
            for q in (1.0, 2.0, p, math.inf):
                n1 = lorentz.lorentz_quasinorm(f, (p, q))
                n2 = lorentz.lorentz_quasinorm_distribution(f, (p, q))
                if n1 > 0:
                    worst = max(worst, abs(n1 - n2) / n1)
    return [("max relative gap between the two norm forms", worst, "<=", 1e-10)]


def embedding_constants(seed):
    C = lorentz.embedding_constant
    rows = [("|C(2, 1, inf) - 2|", abs(C(2.0, 1.0, math.inf) - 2.0), "<=", 1e-15),
            ("|C(3, 1, 2) - sqrt 3|", abs(C(3.0, 1.0, 2.0) - 3.0 ** 0.5), "<=", 1e-15),
            ("C(2, inf, inf)", C(2.0, math.inf, math.inf), "==", 1.0)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        m = rng.integers(1, 30)
        f = rearrangement.SampledFunction(
            rng.exponential(1.0, m) + 0.01, rng.uniform(0.01, 1.0, m))
        p = float(rng.uniform(1.0, 5.0))
        q = float(rng.uniform(1.0, p))
        r = q + float(rng.exponential(2.0))
        c = C(p, q, r)
        lhs = lorentz.lorentz_quasinorm(f, (p, r))
        rhs = c * lorentz.lorentz_quasinorm(f, (p, q))
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    rows.append(("max ||f||_(p,r) / (C ||f||_(p,q))", worst, "<=", 1.0 + 1e-12))
    return rows


def sierpinski_strictness(seed):
    K = lorentz.sierpinski_threshold(1.0)
    model = lorentz.sierpinski_model(1.0)
    t = 1e-12
    rows = [("|K - e^-e|", abs(K - math.exp(-math.e)), "<=", 1e-16),
            ("|t h(t) - 0.30129| at t = 1e-12", abs(t * model.quantile(t) - 0.30129),
             "<=", 2e-4)]
    for q in (1.0, 2.0):
        cert = lorentz.sierpinski_divergence_certificate(1.0, q)
        rows.append((f"q={q:g}: window increments strictly increasing",
                     cert["strictly_increasing"], "==", True))
    rep = lorentz.ac_diagnostic(model, p=1.0)
    rows.append(("AC verdict", rep.verdict, "==", lorentz.AC_CONSISTENT))
    return rows


def cube_truncation_scheme(seed):
    gd = domains.rasterize(domains.unit_cube(2), 2.0**-7)
    rep1 = traces.approximation_scheme(traces.constant_function(gd, 1.0), p=1.0)
    kmu = [r for r in rep1.rows if not r[4]][-1][3]
    rep2 = traces.approximation_scheme(traces.distance_function(gd), p=1.0)
    return [("u=1: verdict", rep1.verdict, "==", traces.INCONSISTENT_WITH_ZERO_TRACE),
            ("u=1: |k mu(E_k) - 4| / 4 at the last resolvable k",
             abs(kmu - 4.0) / 4.0, "<=", 0.05),
            ("u=d: verdict", rep2.verdict, "==", traces.CONSISTENT_WITH_ZERO_TRACE)]


def unit_interval_traces(seed):
    cases = [
        ("sin(pi x)", lambda x: np.sin(math.pi * x),
         lambda x: math.pi * np.cos(math.pi * x), 2.0),
        ("x(1-x)", lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x, 1.0),
        ("1", lambda x: np.ones_like(np.asarray(x, dtype=float)),
         lambda x: np.zeros_like(np.asarray(x, dtype=float)), 3.0),
    ]
    rows = []
    for label, u, du, p in cases:
        rep = traces.oned_zero_trace(u, 0.0, 1.0, p, du=du)
        rows.append((f"u={label}: sup |u| vs two-term bound",
                     rep.sup, "<=", rep.two_term_bound * (1.0 + 1e-9)))
        rows.append((f"u={label}: sup |u| vs collapsed bound",
                     rep.sup, "<=", rep.collapsed_bound * (1.0 + 1e-9)))
    counter = traces.oned_zero_trace(
        lambda x: 1.0 + 0.1 * np.sin(math.pi * x),
        0.0, 1.0, 2.0,
        du=lambda x: 0.1 * math.pi * np.cos(math.pi * x),
    )
    rows.append(("u=1+0.1 sin(pi x): power-sum bound holds", counter.power_sum_holds,
                 "==", False))
    return rows


def rearrangement_invariants(seed):
    f = rearrangement.SampledFunction.from_pairs([(3.0, 0.2), (1.0, 0.5), (2.0, 0.3)])
    r = rearrangement.rearrange(f)
    rows = [("levels close to [3, 2, 1]",
             np.allclose(r.levels, [3.0, 2.0, 1.0]), "==", True),
            ("breakpoints close to [0, 0.2, 0.5, 1]",
             np.allclose(r.breakpoints, [0.0, 0.2, 0.5, 1.0]), "==", True),
            ("mu(1.5)", rearrangement.distribution(f, 1.5), "==", 0.5)]
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(25):
        m = int(rng.integers(1, 30))
        vals = rng.exponential(1.0, m)
        meas = rng.uniform(0.01, 1.0, m)
        g = rearrangement.SampledFunction(vals, meas)
        perm = rng.permutation(m)
        gp = rearrangement.SampledFunction(vals[perm], meas[perm])
        for xi in rng.exponential(1.0, 4):
            a = rearrangement.distribution(g, xi)
            b = rearrangement.distribution(gp, xi)
            if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15):
                mismatches += 1
    rows.append(("permuted samples whose mu differs", mismatches, "==", 0))
    return rows


CHECKS = {fn.__name__: fn for fn in (
    cube_weak_norm,
    cube_distribution_tail,
    punctured_ball_ratio,
    rectangle_profile_search,
    skyscrapers_profile,
    squares_stack_portion,
    rooms_witness_bound,
    lorentz_form_equivalence,
    embedding_constants,
    sierpinski_strictness,
    cube_truncation_scheme,
    unit_interval_traces,
    rearrangement_invariants,
)}
