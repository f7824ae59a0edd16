"""Lorentz quasinorms, absolute-continuity diagnostics, and strictness probes.

Quasinorms are evaluated in two equivalent exact forms for step data: the
rearranged form

    ||f||_{p,q}^q = int_0^inf [t^{1/p} f*(t)]^q dt/t

and the distribution form

    ||f||_{p,q}^q = p int_0^inf xi^{q-1} mu_f(xi)^{q/p} dxi .

For q = infinity both collapse to suprema over the steps.  Closed-form
distributions (DistributionModel) extend the diagnostics past float sample
ranges; that is how the slowly-varying counterexample below is probed.

The weak tail xi mu(xi)^{1/p} at one level is ``_weak_value`` and its
supremum over the steps of a rearrangement is ``_weak_sup``.
``ac_diagnostic`` runs one ladder body for samples and models: sampled
ladders are anchored at the data range and the value cap, model ladders at
xi = 1, and a model may supply its own infinity ladder through
``tail_probe(p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rearrangement import SampledFunction, StepRearrangement, rearrange
from .report import Report

__all__ = [
    "lorentz_quasinorm",
    "lorentz_quasinorm_distribution",
    "weak_norm_tail",
    "weak_tail_extrapolate",
    "embedding_constant",
    "DistributionModel",
    "model_weak_norm",
    "ACReport",
    "ac_diagnostic",
    "AC_CONSISTENT",
    "AC_VIOLATED_AT_ZERO",
    "AC_VIOLATED_AT_INFINITY",
    "sierpinski_threshold",
    "sierpinski_counterexample",
    "sierpinski_model",
    "sierpinski_partial_integrals",
    "sierpinski_divergence_certificate",
]

INF = math.inf

AC_CONSISTENT = "AC_CONSISTENT"
AC_VIOLATED_AT_ZERO = "AC_VIOLATED_AT_ZERO"
AC_VIOLATED_AT_INFINITY = "AC_VIOLATED_AT_INFINITY"
INCONCLUSIVE = "INCONCLUSIVE"


def _exponent(p: float, name: str = "p", finite: bool = False) -> None:
    """Raise ValueError unless 1 <= p, and p < inf where finite is set.

    NaN fails both comparisons, so it is rejected too.
    """
    if not (1.0 <= p and (p < INF or not finite)):
        bound = ")" if finite else "]"
        raise ValueError(f"{name} must be in [1, inf{bound}, got {p!r}")


def _as_index(idx) -> tuple[float, float]:
    """The index pair (p, q) as floats, with 1 <= p, q <= inf."""
    p, q = map(float, idx)
    _exponent(p, "p")
    _exponent(q, "q")
    return p, q


def _steps(f) -> StepRearrangement:
    if isinstance(f, StepRearrangement):
        return f
    return rearrange(f)


def _weak_value(mu, xi: float, p: float) -> float:
    """xi * mu(xi)^{1/p} for a distribution function mu."""
    m = mu(xi)
    return xi * m ** (1.0 / p) if m > 0 else 0.0


def _weak_sup(r: StepRearrangement, p: float, lo: float = 0.0, hi: float = INF) -> float:
    """max of level * t_right^{1/p} over the positive steps with lo <= level <= hi."""
    lv = r.levels
    sel = (lv > 0) & (lv >= lo) & (lv <= hi)
    if not np.any(sel):
        return 0.0
    return float(np.max(lv[sel] * r.breakpoints[1:][sel] ** (1.0 / p)))


def lorentz_quasinorm(f, idx) -> float:
    """L^{p,q} quasinorm via the rearranged form.

    Exact for step data: for q < inf each step contributes
    level^q * (p/q) * (t_right^{q/p} - t_left^{q/p}); for q = inf the
    supremum sup t^{1/p} f*(t) is approached at right endpoints.
    """
    p, q = _as_index(idx)
    r = _steps(f)
    lv = r.levels
    tl = r.breakpoints[:-1]
    tr = r.breakpoints[1:]
    pos = lv > 0
    if not np.any(pos):
        return 0.0
    if p == INF:
        # L^{inf,inf} is the sup norm; for q < inf the t^{-1} weight makes
        # the integral diverge for every nonzero step function
        return float(lv[0]) if q == INF else INF
    if q == INF:
        return _weak_sup(r, p)
    terms = lv[pos] ** q * (p / q) * (tr[pos] ** (q / p) - tl[pos] ** (q / p))
    return float(np.sum(terms) ** (1.0 / q))


def lorentz_quasinorm_distribution(f, idx) -> float:
    """L^{p,q} quasinorm via the distribution-function form.

    Uses the ascending distinct values u_1 < ... < u_M with tail measures
    T_j = mu_f(xi) for xi in [u_{j-1}, u_j); exactly equal to the rearranged
    form on step data.
    """
    p, q = _as_index(idx)
    r = _steps(f)
    pos = r.levels > 0
    if not np.any(pos):
        return 0.0
    if p == INF:
        return float(r.levels[0]) if q == INF else INF
    u = r.levels[pos][::-1]          # ascending positive values
    tails = r.breakpoints[1:][pos][::-1]  # measure of {f >= u_j} = mu just below u_j
    if q == INF:
        return float(np.max(u * tails ** (1.0 / p)))
    u_prev = np.concatenate(([0.0], u[:-1]))
    total = np.sum(tails ** (q / p) * (u**q - u_prev**q))
    return float(((p / q) * total) ** (1.0 / q))


def weak_norm_tail(f, xi_floor: float = 0.0, p: float = 1.0) -> float:
    """sup_{xi >= xi_floor} xi * mu_f(xi)^{1/p}.

    With xi_floor = 0 this is the full L^{p,inf} quasinorm.  Accepts sampled
    data (exact) or a DistributionModel (dyadic ladder plus local refinement).
    """
    if not 0.0 <= xi_floor < INF:
        raise ValueError(f"xi_floor must be nonnegative and finite, got {xi_floor!r}")
    _exponent(p)
    if isinstance(f, DistributionModel):
        return model_weak_norm(f, p=p, xi_lo=xi_floor or None)
    r = _steps(f)
    best = _weak_sup(r, p, lo=xi_floor)
    if xi_floor > 0:
        best = max(best, _weak_value(r.level_measure, xi_floor, p))
    return best


def weak_tail_extrapolate(f, xi_probes, degree: int) -> float:
    """Extrapolate xi * mu_f(xi) to xi -> inf from a few probe points.

    Fits a polynomial of the given degree in the variable 1/xi and returns
    the value at 1/xi = 0.  On rasterized reciprocal-distance fields the
    product xi * mu(xi) is polynomial in 1/xi at cell-aligned probes, so the
    fit removes the staircase bias of the raw supremum.  The fit variable
    1/xi is scaled by the power of two that puts its largest value in
    [0.5, 1), which leaves the value at 0 unchanged and keeps the
    least-squares columns in range for probes of any size.  Raises
    ValueError for a probe that is not positive and finite.
    """
    xi = np.asarray(list(xi_probes), dtype=float)
    if xi.size < degree + 1:
        raise ValueError("need at least degree+1 probes")
    if not np.all(np.isfinite(xi) & (xi > 0)):
        raise ValueError("probes must be positive and finite")
    mu = f.mu if isinstance(f, DistributionModel) else _steps(f).level_measure
    g = np.array([_weak_value(mu, x, 1.0) for x in xi])
    x = 1.0 / xi
    coeffs = np.polyfit(np.ldexp(x, -math.frexp(x.max())[1]), g, degree)
    return float(coeffs[-1])


def embedding_constant(p: float, q: float, r: float) -> float:
    """Sharp constant (p/q)^{1/q - 1/r} in ||f||_{p,r} <= C ||f||_{p,q}.

    Requires 1 <= q <= r <= inf; 1/inf reads as 0.
    """
    _exponent(p, finite=True)
    if not (1.0 <= q <= r):
        raise ValueError("need 1 <= q <= r")
    inv_q = 0.0 if q == INF else 1.0 / q
    inv_r = 0.0 if r == INF else 1.0 / r
    return float((p / q) ** (inv_q - inv_r)) if q != INF else 1.0


# ---------------------------------------------------------------------------
# closed-form distributions


@dataclass(frozen=True)
class DistributionModel:
    """A function known through a closed-form distribution mu(xi).

    mu must be nonincreasing with mu(xi) -> 0 as xi -> inf.  ``quantile``
    (the rearrangement f*(t)) and ``tail_probe`` are optional; tail_probe(p)
    returns the infinity-end ladder as (coordinate, xi mu(xi)^{1/p}) pairs,
    for a model whose natural parameterization of that end escapes float
    range.  ``scale_hint`` is only used to scale verdict thresholds, never
    reported as a computed value.
    """

    mu: Callable[[float], float]
    total_measure: float
    label: str = ""
    scale_hint: float | None = None
    quantile: Callable[[float], float] | None = None
    tail_probe: Callable[[float], list] | None = None
    notes: tuple[str, ...] = ()


def model_weak_norm(
    model: DistributionModel,
    p: float = 1.0,
    xi_lo: float | None = None,
) -> float:
    """sup_{xi} xi * mu(xi)^{1/p} over a dyadic ladder with local refinement.

    The ladder spans 2^{-60..60} clipped below at xi_lo; a log-space
    ternary refinement around the ladder argmax tightens interior maxima.
    Suprema attained in the limit xi -> inf are reproduced to ~1e-17
    relative by the ladder top.
    """
    _exponent(p)
    lo = xi_lo if xi_lo is not None else 2.0**-60
    hi = 2.0**60
    if not (0 < lo < hi):
        raise ValueError("need 0 < xi_lo < 2^60")
    ks = np.arange(math.floor(math.log2(lo)), math.ceil(math.log2(hi)) + 1)
    grid = np.clip(2.0**ks, lo, hi)
    grid = np.unique(np.concatenate((grid, [lo, hi])))

    def val(x: float) -> float:
        return _weak_value(model.mu, x, p)

    vals = np.array([val(x) for x in grid])
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    best = float(vals[i])
    # golden-section in log xi between the bracketing neighbors
    la, lb = math.log(a), math.log(b)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = lb - phi * (lb - la)
    x2 = la + phi * (lb - la)
    f1, f2 = val(math.exp(x1)), val(math.exp(x2))
    for _ in range(120):
        if f1 < f2:
            la, x1, f1 = x1, x2, f2
            x2 = la + phi * (lb - la)
            f2 = val(math.exp(x2))
        else:
            lb, x2, f2 = x2, x1, f1
            x1 = lb - phi * (lb - la)
            f1 = val(math.exp(x1))
        best = max(best, f1, f2)
    return best


# ---------------------------------------------------------------------------
# absolute continuity diagnostics


# probes per ladder end: dyadic steps covering twelve decades
_N_PROBES = 40
# an end's limit reads as zero below this fraction of the q = inf quasinorm
_THRESHOLD_REL = 1e-3


@dataclass(frozen=True)
class ACReport(Report):
    """Outcome of the vanishing-tail diagnostic for L^{p,inf} membership.

    trend_samples rows are (kind, coordinate, value) with kind one of
    xi_zero, xi_infinity, t_zero, t_infinity.  Values are xi mu(xi)^{1/p}
    for xi ladders and t^{1/p} f*(t) for t ladders.  Coordinates for a
    model-supplied ladder may live in a transformed scale named in notes.
    """

    p: float
    verdict: str
    limit_at_zero_estimate: float
    limit_at_infinity_estimate: float
    threshold: float
    trend_samples: tuple
    notes: tuple[str, ...] = ()


def _classify_end(values, threshold: float) -> str:
    """Classify the last three probes of a ladder ordered toward its limit."""
    if len(values) < 3:
        return INCONCLUSIVE
    a, b, c = values[-3], values[-2], values[-1]
    lo, hi = min(a, b, c), max(a, b, c)
    if lo > threshold and hi <= 1.1 * lo:
        return "violated"
    if a < b < c and c > threshold:
        return "violated"
    if a >= b >= c and c <= threshold:
        return "consistent"
    return INCONCLUSIVE


def _extend_until_below(xi0: float, value_at, threshold: float, limit: int):
    """Extend a dyadic downward ladder until the value drops below threshold."""
    pts = []
    xi = xi0
    for _ in range(limit):
        xi *= 0.5
        pts.append((xi, value_at(xi)))
        if pts[-1][1] <= threshold:
            break
    return pts


def ac_diagnostic(f, p: float) -> ACReport:
    """Vanishing-tail test for membership in the closure of truncations.

    Probes xi mu(xi)^{1/p} along dyadic xi ladders toward 0 and infinity
    (and records t^{1/p} f*(t) ladders).  Per end, the last three probes
    decide: nonincreasing and ending below threshold is consistent with a
    zero limit; a stable (within 10%) or growing value above threshold is a
    violation; anything else is inconclusive.  Sampled inputs carrying a
    value_cap cannot certify a zero limit at the capped end, but a stable
    violation inside the resolved range stands.

    threshold = 1e-3 * (q = inf quasinorm scale); each ladder end has 40
    probes.  Sampled ladders end at the value cap (or 4 max f) and start
    below max f; model ladders are anchored at xi = 1, and tail_probe(p)
    replaces the infinity ladder.  Each input kind walks a zero end that is
    still above threshold further down by its own step budget.
    """
    _exponent(p, finite=True)
    n = _N_PROBES
    notes: list[str] = []
    truncated = False
    inf_pts = None

    if isinstance(f, DistributionModel):
        mu, quantile, total = f.mu, f.quantile, f.total_measure
        scale = f.scale_hint or None
        notes.extend(f.notes)
        j_top, j0 = n, 0
        if f.tail_probe is not None:
            inf_pts = f.tail_probe(p)

        def extension(zvals, threshold):
            # only a zero end that is still falling is walked further
            return 200 if zvals[-1] < zvals[0] else 0
    else:
        r = _steps(f)
        scale = _weak_sup(r, p)
        if scale == 0.0:
            return ACReport(
                p=p, verdict=AC_CONSISTENT, limit_at_zero_estimate=0.0,
                limit_at_infinity_estimate=0.0, threshold=0.0,
                trend_samples=(), notes=("identically zero",),
            )
        mu, quantile, total = r.level_measure, r, r.total_measure
        vmax = float(r.levels[0])
        cap = f.value_cap if isinstance(f, SampledFunction) else None
        truncated = cap is not None and cap < vmax
        if truncated:
            notes.append(
                f"value_cap {cap:g} truncated the infinity ladder below the "
                f"data max {vmax:g}; a zero limit cannot be certified there"
            )
        j_top = math.floor(math.log2(cap if truncated else 4.0 * vmax))
        j0 = math.floor(math.log2(vmax))

        def extension(zvals, threshold):
            # below the smallest positive level mu is constant, so the
            # ladder certifies once xi <= threshold / mu(0); budget enough
            # steps to walk there even when the data spans many octaves
            xi_start = 2.0 ** (j0 - n)
            target = min(float(r.levels[r.levels > 0][-1]), threshold / mu(0.0))
            if 0.0 < target < xi_start:
                return max(200, math.ceil(math.log2(xi_start / target)) + 4)
            return 200

    def g(xi: float) -> float:
        return _weak_value(mu, xi, p)

    if inf_pts is None:
        inf_pts = [(2.0**j, g(2.0**j)) for j in range(j_top - n + 1, j_top + 1)]
    zero_pts = [(2.0**j, g(2.0**j)) for j in range(j0 - 1, j0 - 1 - n, -1)]
    if scale is None:
        scale = max(v for _, v in inf_pts + zero_pts)
    threshold = _THRESHOLD_REL * scale
    zvals = [v for _, v in zero_pts]
    if zvals[-1] > threshold:
        zero_pts += _extend_until_below(zero_pts[-1][0], g, threshold,
                                        extension(zvals, threshold))
    inf_vals = [v for _, v in inf_pts]
    zero_vals = [v for _, v in zero_pts]
    inf_state = _classify_end(inf_vals, threshold)
    zero_state = _classify_end(zero_vals, threshold)
    if truncated and inf_state == "consistent":
        inf_state = INCONCLUSIVE

    trend: list[tuple[str, float, float]] = []
    if quantile is not None:
        for j in range(1, n + 1):
            t = total * 2.0**-j
            trend.append(("t_zero", t, t ** (1.0 / p) * quantile(t)))
        trend.append(("t_infinity", total, 0.0))
    trend.extend(("xi_infinity", x, v) for x, v in inf_pts)
    trend.extend(("xi_zero", x, v) for x, v in zero_pts)

    if inf_state == "violated":
        verdict = AC_VIOLATED_AT_INFINITY
    elif zero_state == "violated":
        verdict = AC_VIOLATED_AT_ZERO
    elif inf_state == "consistent" and zero_state == "consistent":
        verdict = AC_CONSISTENT
    else:
        verdict = INCONCLUSIVE

    return ACReport(
        p=p,
        verdict=verdict,
        limit_at_zero_estimate=float(zero_vals[-1]),
        limit_at_infinity_estimate=float(inf_vals[-1]),
        threshold=float(threshold),
        trend_samples=tuple(trend),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the slowly-varying strictness counterexample
#
# h(t) = t^{-1/p} / loglog(1/t) on (0, K), K = exp(-e^p), inside a measure
# space of unit measure: the weak tail t^{1/p} h(t) = 1/loglog(1/t)
# vanishes, yet every L^{p,q} integral with q < inf diverges at 0.

# the sampled counterexample has this many geometric cells, spanning this
# many decades below K
_SIERPINSKI_CELLS = 400
_SIERPINSKI_DECADES = 200.0
# the largest p whose smallest cell measure, K (10^{-199.5} - 10^{-200}), is
# a normal float (about 5.516); above it the cell measures lose precision
# and then underflow to 0
_SIERPINSKI_P_MAX = math.log(math.log(
    (10.0 ** (-_SIERPINSKI_DECADES * (1.0 - 1.0 / _SIERPINSKI_CELLS))
     - 10.0 ** -_SIERPINSKI_DECADES) / np.finfo(float).tiny))
# the largest p whose threshold K = exp(-e^p) is a normal float (about
# 6.5630); above it 1/K overflows and K turns subnormal, then 0
_SIERPINSKI_THRESHOLD_P_MAX = math.log(math.log(1.0 / np.finfo(float).tiny))


def sierpinski_threshold(p: float) -> float:
    """Right endpoint K = exp(-e^p) of the counterexample (K < 1 for p >= 1).

    Raises ValueError above p = 6.5630, where K stops being a normal float.
    """
    _exponent(p, finite=True)
    if p > _SIERPINSKI_THRESHOLD_P_MAX:
        raise ValueError(f"p must be <= {_SIERPINSKI_THRESHOLD_P_MAX:.4f}, the largest "
                         f"p whose threshold exp(-e^p) is a normal float; got {p!r}")
    return math.exp(-math.exp(p))


def _h_value(t: float, p: float) -> float:
    return t ** (-1.0 / p) / math.log(math.log(1.0 / t))


def sierpinski_counterexample(p: float) -> SampledFunction:
    """Geometric-grid sampling of the counterexample near t = 0.

    400 cells shrink geometrically from K down to K * 10^{-200}; mass below
    the last cell is truncated (the function is unbounded).  A zero-value
    tail of measure 1 - K pads the measure space to unit measure.  Raises
    ValueError above p = 5.516, where the smallest cell measure stops being
    a normal float.
    """
    if p > _SIERPINSKI_P_MAX:
        raise ValueError(f"p must be <= {_SIERPINSKI_P_MAX:.4f}, the largest p whose "
                         f"smallest cell measure is a normal float; got {p!r}")
    K = sierpinski_threshold(p)
    n = _SIERPINSKI_CELLS
    edges = K * 10.0 ** (-_SIERPINSKI_DECADES * np.arange(n + 1) / n)
    # geometric means; the plain product of neighboring edges can underflow
    mids = np.sqrt(edges[:-1]) * np.sqrt(edges[1:])
    values = np.array([_h_value(t, p) for t in mids] + [0.0])
    measures = np.append(edges[:-1] - edges[1:], 1.0 - K)
    return SampledFunction(values=values, measures=measures,
                           label=f"slowly_varying_p{p:g}")


def sierpinski_model(p: float) -> DistributionModel:
    """Closed-form DistributionModel for the counterexample on unit measure.

    The infinity end is supplied as a dyadic ladder in the substitution
    coordinate y = loglog(1/t) (t = exp(-e^y) underflows long before the
    tail value 1/y reaches any threshold); along that curve
    xi mu(xi)^{1/p} = t^{1/p} h(t) = 1/y exactly.
    """
    K = sierpinski_threshold(p)
    y_K = math.log(math.log(1.0 / K))

    def quantile(t: float) -> float:
        if t <= 0:
            raise ValueError("t must be positive")
        return _h_value(t, p) if t < K else 0.0

    h_at_K = K ** (-1.0 / p) / y_K

    def mu(xi: float) -> float:
        if xi < 0:
            raise ValueError("xi must be nonnegative")
        if xi <= h_at_K:
            return K
        from scipy.optimize import brentq

        w = math.log(xi)

        def g(y: float) -> float:
            return math.exp(y) / p - math.log(y) - w

        y_hi = max(y_K + 1.0, math.log(p * (w + 700.0)) + 1.0)
        y = brentq(g, y_K, y_hi, xtol=1e-14, rtol=1e-15)
        return math.exp(-math.exp(y))

    def tail_probe(p_arg: float):
        jmax = max(14, math.ceil(math.log2(1000.0 * p_arg)) + 2)
        return [(y_K * 2.0**j, 1.0 / (y_K * 2.0**j)) for j in range(1, jmax + 1)]

    return DistributionModel(
        mu=mu,
        total_measure=1.0,
        label=f"slowly_varying_p{p:g}",
        scale_hint=1.0 / y_K,
        quantile=quantile,
        tail_probe=tail_probe,
        notes=("infinity-end coordinates are y = loglog(1/t), not xi",),
    )


def sierpinski_partial_integrals(p: float, q: float, eps_list) -> list[float]:
    """Partial integrals int_eps^K [t^{1/p} h(t)]^q dt/t for eps in eps_list.

    Computed as int e^y / y^q dy over [loglog(1/K), loglog(1/eps)].
    """
    _exponent(q, "q", finite=True)
    from scipy.integrate import quad

    K = sierpinski_threshold(p)
    y_K = math.log(math.log(1.0 / K))
    out = []
    for eps in eps_list:
        if not 0 < eps < K:
            raise ValueError(f"eps must lie in (0, K), got {eps}")
        y_hi = math.log(math.log(1.0 / eps))
        val, _ = quad(lambda y: math.exp(y) / y**q, y_K, y_hi, limit=200)
        out.append(float(val))
    return out


# the divergence certificate integrates over this many decades of y
_CERT_WINDOWS = 3


def sierpinski_divergence_certificate(p: float, q: float) -> dict:
    """Window integrals of e^y/y^q over three successive decades of y.

    Increments that strictly increase without bound certify divergence of
    the L^{p,q} integral; log-space summation keeps e^y in range.  Float
    epsilon ladders provably cannot reach the growth regime for q >= 2
    (needs t below exp(-e^q)), which is why the certificate runs in y.
    """
    y0 = max(p, q, 2.0)
    windows = [[y0 * 10.0**i, y0 * 10.0 ** (i + 1)] for i in range(_CERT_WINDOWS)]
    log_increments = []
    for a, b in windows:
        ys = np.linspace(a, b, 20001)
        g = ys - q * np.log(ys)
        w = np.full(ys.shape, ys[1] - ys[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        x = g + np.log(w)
        top = x.max()
        log_increments.append(float(top + np.log(np.sum(np.exp(x - top)))))
    diffs = np.diff(log_increments)
    return {
        "p": p,
        "q": q,
        "y_windows": windows,
        "log_increments": log_increments,
        "strictly_increasing": bool(np.all(diffs > 0)),
        "log_growth": float(log_increments[-1] - log_increments[0]),
    }
