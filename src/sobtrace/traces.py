"""Zero-trace membership diagnostics for grid functions.

The central objects are the ratio field u/d, its weak quasinorm, and the
truncation scheme u -> min(u, k d): square-summable decay of the residuals
is the numerical signature of zero-trace membership, while a stabilizing
k |{u > k d}|^{1/p} column is the signature of the obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .domains import TRUSTED_LAYER_CELLS, GridDomain, face_pairs
from .lorentz import INCONCLUSIVE, ACReport, _weak_sup, ac_diagnostic, weak_tail_extrapolate
from .rearrangement import SampledFunction, distribution, rearrange
from .report import Report, csv_text

__all__ = [
    "GridFunction",
    "sample_function",
    "distance_function",
    "constant_function",
    "gradient_magnitude",
    "SobolevNorm",
    "sobolev_norm",
    "ratio_field",
    "WeakNormEstimate",
    "weak_norm_estimate",
    "distance_truncation",
    "DiagnosticReport",
    "approximation_scheme",
    "maximal_operator",
    "hardy_pointwise_check",
    "OneDTraceReport",
    "oned_zero_trace",
]

CONSISTENT_WITH_ZERO_TRACE = "CONSISTENT_WITH_ZERO_TRACE"
INCONSISTENT_WITH_ZERO_TRACE = "INCONSISTENT_WITH_ZERO_TRACE"

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples at the cell centers of a rasterized domain."""

    parent: GridDomain
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.parent.occupancy.shape:
            raise ValueError("values shape does not match the grid")
        if not np.all(np.isfinite(vals[self.parent.occupancy])):
            raise ValueError("values must be finite on the domain")
        object.__setattr__(self, "values", np.where(self.parent.occupancy, vals, 0.0))


def sample_function(gd: GridDomain, fn: Callable, label: str = "") -> GridFunction:
    vals = np.asarray(fn(gd.centers()), dtype=float)
    return GridFunction(gd, np.where(gd.occupancy, vals, 0.0), label)


def distance_function(gd: GridDomain) -> GridFunction:
    return GridFunction(gd, gd.distance_field.copy(), "d")


def constant_function(gd: GridDomain, c: float = 1.0) -> GridFunction:
    return GridFunction(gd, np.full(gd.occupancy.shape, float(c)), f"const_{c:g}")


# ---------------------------------------------------------------------------
# calculus on the grid


def gradient_magnitude(u: GridFunction) -> np.ndarray:
    """Euclidean norm of the finite-difference gradient, one-sided at walls.

    Central differences are used when both face neighbors lie in the
    domain, one-sided otherwise; both stencils are exact on affine data.
    """
    gd = u.parent
    occ = gd.occupancy
    v = u.values
    h = gd.h
    total = np.zeros(occ.shape)
    for lo, hi in face_pairs(occ.ndim):
        # value and occupancy of the neighbour one step up (p) / down (m)
        vp = np.zeros(occ.shape)
        vm = np.zeros(occ.shape)
        has_p = np.zeros_like(occ)
        has_m = np.zeros_like(occ)
        vp[lo], has_p[lo] = v[hi], occ[hi]
        vm[hi], has_m[hi] = v[lo], occ[lo]
        g = np.zeros(occ.shape)
        both = has_p & has_m
        g[both] = (vp[both] - vm[both]) / (2.0 * h)
        only_p = has_p & ~has_m
        g[only_p] = (vp[only_p] - v[only_p]) / h
        only_m = has_m & ~has_p
        g[only_m] = (v[only_m] - vm[only_m]) / h
        total += g * g
    out = np.sqrt(total)
    out[~occ] = 0.0
    return out


class SobolevNorm(NamedTuple):
    lp: float
    grad_lp: float
    w1p: float


def _grid_lp(gd: GridDomain, field: np.ndarray, p: float) -> float:
    vals = np.abs(field[gd.occupancy])
    if math.isinf(p):
        return float(vals.max()) if vals.size else 0.0
    return float((np.sum(vals**p) * gd.cell_measure) ** (1.0 / p))


def sobolev_norm(u: GridFunction, p: float) -> SobolevNorm:
    """(||u||_p, || |grad u| ||_p, combined first-order norm)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    gd = u.parent
    lp = _grid_lp(gd, u.values, p)
    gp = _grid_lp(gd, gradient_magnitude(u), p)
    if math.isinf(p):
        return SobolevNorm(lp, gp, max(lp, gp))
    return SobolevNorm(lp, gp, float((lp**p + gp**p) ** (1.0 / p)))


# ---------------------------------------------------------------------------
# the ratio field u/d and its weak norm


def ratio_field(u: GridFunction) -> SampledFunction:
    """Sampled field |u|/d over the grid cells.

    Cells with d < 2h sit in the layer where the grid distance cannot be
    trusted; the largest ratio seen outside that layer is recorded as the
    sample's value cap, the ceiling up to which level sets are reliable.
    """
    gd = u.parent
    occ = gd.occupancy
    d = gd.distance_field[occ]
    if np.any(d <= 0):
        raise ValueError("distance field vanishes on an occupied cell")
    ratios = np.abs(u.values[occ]) / d
    trusted = d >= TRUSTED_LAYER_CELLS * gd.h
    cap = float(ratios[trusted].max()) if trusted.any() else float(ratios.max())
    cap = max(cap, np.finfo(float).tiny)
    return SampledFunction(
        values=ratios,
        measures=np.full(ratios.shape, gd.cell_measure),
        label=(u.label + "/d") if u.label else "ratio",
        value_cap=cap,
    )


class WeakNormEstimate(NamedTuple):
    estimate: float
    raw_sup: float
    extrapolated: float | None
    value_cap: float


def weak_norm_estimate(u: GridFunction, p: float = 1.0) -> WeakNormEstimate:
    """Weak L^{p,inf} quasinorm of the boundary-layer tail of u/d.

    The raw sampled supremum of t^{1/p} (u/d)*(t) overshoots a continuum
    1/d singularity: at a level tied to the i-th cell layer its closed tail
    inflates the product by (i+1)/(i+1/2).  Bias-free values come from the
    aligned levels 1/(j h), where cell-center counting reproduces the
    continuum distribution; the estimate is the larger of those probe
    values and (for p = 1) their polynomial extrapolation in 1/xi to
    xi = infinity, of degree N-1.  When every aligned probe overshoots the
    data range the field has no boundary-layer tail and the raw supremum,
    then unbiased, is used instead.
    """
    if p < 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    return _ratio_weak_norm(ratio_field(u), u.parent, p)


def _ratio_weak_norm(f: SampledFunction, gd: GridDomain, p: float) -> WeakNormEstimate:
    """Body of weak_norm_estimate for the ratio field f of a function on gd."""
    r = rearrange(f)
    cap = f.value_cap
    raw = _weak_sup(r, p, hi=cap)
    n = gd.domain.dimension
    degree = n - 1
    js = np.arange(TRUSTED_LAYER_CELLS, TRUSTED_LAYER_CELLS + degree + 2)
    probes = (1.0 / (js * gd.h))
    probes = probes[probes <= cap]
    mus = np.array([r.level_measure(x) for x in probes])
    extrapolated = None
    if len(probes) >= degree + 1 and np.any(mus > 0):
        aligned = float(np.max(probes * mus ** (1.0 / p)))
        if p == 1.0:
            extrapolated = float(weak_tail_extrapolate(r, probes, degree=degree))
            est = max(aligned, extrapolated)
        else:
            est = aligned
    else:
        est = raw
    return WeakNormEstimate(est, raw, extrapolated, cap)


# ---------------------------------------------------------------------------
# truncation diagnostics


def distance_truncation(u: GridFunction, eta: float) -> tuple[GridFunction, dict]:
    """Zero out u on the collar {d <= eta}; report the removed measure."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    gd = u.parent
    keep = gd.occupancy & (gd.distance_field > eta)
    removed = gd.occupancy & ~keep
    vals = np.where(keep, u.values, 0.0)
    report = {
        "eta": float(eta),
        "removed_measure_grid": float(removed.sum()) * gd.cell_measure,
        "removed_sup": float(np.abs(u.values[removed]).max()) if removed.any() else 0.0,
    }
    dd = gd.domain.distance_distribution
    if dd is not None and gd.domain.measure is not None:
        report["removed_measure_exact"] = gd.domain.measure - dd(eta)
    label = f"{u.label}|d>{eta:g}" if u.label else f"trunc_{eta:g}"
    return GridFunction(gd, vals, label), report


# the scheme reads CONSISTENT once the last resolvable residual falls below
# this fraction of the first
_SCHEME_THRESHOLD_RATIO = 1e-2


@dataclass(frozen=True)
class DiagnosticReport(Report):
    """Outcome of the truncation scheme u -> min(u, k d).

    Rows hold (k, res_w1p, measure_Ek, k_mu_pow, resolution_limited) where
    E_k = {u > k d} and res_w1p is the combined first-order norm of
    (u - k d)^+.  Rows with k beyond 1/(2h) cannot resolve the collar
    {d < 1/k} and are excluded from the verdict.
    """

    p: float
    verdict: str
    rows: tuple
    weak_norm: float
    ac: ACReport
    sobolev: SobolevNorm
    threshold_ratio: float
    notes: tuple = ()

    def to_csv(self) -> str:
        return csv_text("k,res_w1p,measure_Ek,k_mu_pow,resolution_limited", self.rows)


def approximation_scheme(
    u: GridFunction,
    p: float,
    k_list=None,
) -> DiagnosticReport:
    """Run the truncation scheme and classify the trace behavior.

    Verdict: CONSISTENT if the final resolvable residual has dropped below
    1e-2 times the initial one (an all-zero residual column passes);
    INCONSISTENT if residuals grow or stall at the same scale; INCONCLUSIVE
    otherwise.
    """
    if p < 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    gd = u.parent
    if np.any(u.values[gd.occupancy] < 0):
        raise ValueError("the scheme expects a nonnegative function")
    if k_list is None:
        k_list = [float(2**j) for j in range(11)]
    k_list = sorted(float(k) for k in k_list)
    if not k_list or k_list[0] <= 0:
        raise ValueError("k_list must be positive")
    d = gd.distance_field
    occ = gd.occupancy
    k_resolve = 1.0 / (TRUSTED_LAYER_CELLS * gd.h)
    rows = []
    notes = []
    for k in k_list:
        excess = np.where(occ, np.maximum(u.values - k * d, 0.0), 0.0)
        ek = occ & (u.values > k * d)
        mek = float(ek.sum()) * gd.cell_measure
        res = sobolev_norm(GridFunction(gd, excess, "excess"), p).w1p
        limited = k > k_resolve
        rows.append((k, float(res), mek, float(k * mek ** (1.0 / p)), limited))
    valid = [r for r in rows if not r[4]]
    if not valid:
        verdict = INCONCLUSIVE
        notes.append(f"all k beyond the resolvable range k <= {k_resolve:g}")
    else:
        w_init = valid[0][1]
        w_fin = valid[-1][1]
        w_max = max(r[1] for r in valid)
        if w_fin <= _SCHEME_THRESHOLD_RATIO * w_init:
            verdict = CONSISTENT_WITH_ZERO_TRACE
        elif w_fin >= 0.5 * w_max or w_fin > w_init:
            verdict = INCONSISTENT_WITH_ZERO_TRACE
        else:
            verdict = INCONCLUSIVE
            notes.append("residuals decay but have not crossed the threshold")
    if any(r[4] for r in rows):
        notes.append(f"rows with k > {k_resolve:g} are below grid resolution")
    f = ratio_field(u)
    wne = _ratio_weak_norm(f, gd, 1.0)
    ac = ac_diagnostic(f, p=1.0)
    sob = sobolev_norm(u, p)
    return DiagnosticReport(
        p=float(p),
        verdict=verdict,
        rows=tuple(rows),
        weak_norm=float(wne.estimate),
        ac=ac,
        sobolev=sob,
        threshold_ratio=_SCHEME_THRESHOLD_RATIO,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# maximal function and the pointwise distance bound


def _ball_stencil(j: int, ndim: int) -> np.ndarray:
    rng = np.arange(-j, j + 1)
    grids = np.meshgrid(*([rng] * ndim), indexing="ij")
    d2 = sum(g * g for g in grids)
    return (d2 <= j * j).astype(float)


def maximal_operator(u: GridFunction, R, radii: str = "all") -> GridFunction:
    """Centered maximal average over grid balls of radius up to R.

    R may be a scalar or a per-cell array; with a per-cell budget each cell
    freezes once the growing radius exceeds its own R.  Averages divide by
    the full stencil count with zero extension outside the domain, so the
    maximal function of a constant equals that constant away from walls.
    radii = "dyadic" probes only radii h, 2h, 4h, ... (a lower estimate).
    """
    from scipy.signal import fftconvolve

    gd = u.parent
    occ = gd.occupancy
    h = gd.h
    if np.isscalar(R):
        R_arr = np.full(occ.shape, float(R))
    else:
        R_arr = np.asarray(R, dtype=float)
        if R_arr.shape != occ.shape:
            raise ValueError("per-cell R shape does not match the grid")
    rmax = float(R_arr[occ].max()) if occ.any() else 0.0
    jmax = int(math.floor(rmax / h + 1e-12))
    if radii == "all":
        js = range(1, jmax + 1)
    elif radii == "dyadic":
        js = []
        j = 1
        while j <= jmax:
            js.append(j)
            j *= 2
    else:
        raise ValueError("radii must be 'all' or 'dyadic'")
    absu = np.where(occ, np.abs(u.values), 0.0)
    M = absu.copy()
    for j in js:
        stencil = _ball_stencil(j, occ.ndim)
        avg = fftconvolve(absu, stencil, mode="same") / stencil.sum()
        avg = np.maximum(avg, 0.0)
        active = occ & (R_arr >= j * h - 1e-12)
        M = np.where(active, np.maximum(M, avg), M)
    M[~occ] = 0.0
    return GridFunction(gd, M, f"M[{u.label}]" if u.label else "M")


# hardy_pointwise_check bounds |u| by d times the maximal function of
# |grad u| over balls of radius up to this multiple of d
_HARDY_FACTOR = 2.0


def hardy_pointwise_check(u: GridFunction) -> dict:
    """Estimate sup |u| / (d * M_{2d} |grad u|) over trusted cells.

    Cells within 2h of the boundary and cells where the maximal average
    vanishes are excluded; the constant is an upper estimate because the
    dyadic radius ladder only underestimates the maximal function.
    """
    gd = u.parent
    g = GridFunction(gd, gradient_magnitude(u), "grad")
    M = maximal_operator(g, _HARDY_FACTOR * gd.distance_field, radii="dyadic")
    d = gd.distance_field
    trusted = gd.occupancy & (d >= TRUSTED_LAYER_CELLS * gd.h) & (M.values > 0)
    if not trusted.any():
        return {"constant_estimate": math.inf, "cells": 0, "factor": _HARDY_FACTOR}
    vals = np.abs(u.values[trusted]) / (d[trusted] * M.values[trusted])
    return {
        "constant_estimate": float(vals.max()),
        "cells": int(trusted.sum()),
        "factor": _HARDY_FACTOR,
    }


# ---------------------------------------------------------------------------
# one-dimensional endpoint diagnostics


@dataclass(frozen=True)
class OneDTraceReport(Report):
    """Endpoint limits and uniform bounds for u on an interval (a, b)."""

    a: float
    b: float
    p: float
    sup: float
    lp_norm: float
    dlp_norm: float
    endpoint_estimates: tuple
    endpoints_zero: tuple
    member: bool
    two_term_bound: float
    collapsed_bound: float
    power_sum_bound: float
    power_sum_holds: bool
    threshold: float


def _endpoint_estimate(u: Callable, end: float, toward: float, L: float) -> float:
    # linear fit over the last three dyadic offsets toward the endpoint
    sign = 1.0 if toward > end else -1.0
    offs = np.array([L * 2.0**-m for m in (10, 11, 12)])
    xs = end + sign * offs
    ys = np.array([float(u(x)) for x in xs])
    coef = np.polyfit(offs, ys, 1)
    return float(coef[-1])


def oned_zero_trace(
    u: Callable,
    a: float,
    b: float,
    p: float,
    du: Callable | None = None,
    samples: int = 8192,
) -> OneDTraceReport:
    """Classify endpoint behavior of u on (a, b) and evaluate sup bounds.

    Membership in the zero-endpoint class is decided by extrapolating u
    along dyadic offsets at each end; an end reads zero when its estimate
    is within 1e-3 sup |u|.  The two-term bound
    L^{-1/p} ||u||_p + L^{1-1/p} ||u'||_p and its collapsed one-constant
    form with the norm sum hold for every first-order function; the
    power-sum form (with an l^p sum of the norms in place of the plain
    sum) is reported but can fail, so it carries its own flag.
    """
    if not b > a:
        raise ValueError("need b > a")
    if p < 1 or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    L = b - a
    xs = np.linspace(a, b, samples + 1)
    vals = np.asarray(u(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.array([float(u(x)) for x in xs])
    sup = float(np.abs(vals).max())
    if du is not None:
        dvals = np.asarray(du(xs), dtype=float)
    else:
        dvals = np.gradient(vals, xs)
    lp = float(_trapz(np.abs(vals) ** p, xs) ** (1.0 / p))
    dlp = float(_trapz(np.abs(dvals) ** p, xs) ** (1.0 / p))
    est_a = _endpoint_estimate(u, a, b, L)
    est_b = _endpoint_estimate(u, b, a, L)
    threshold = max(1e-3 * sup, 1e-12)
    zero_a = abs(est_a) <= threshold
    zero_b = abs(est_b) <= threshold
    two_term = L ** (-1.0 / p) * lp + L ** (1.0 - 1.0 / p) * dlp
    collapsed = L ** (-1.0 / p) * max(1.0, L) * (lp + dlp)
    power_sum = L ** (-1.0 / p) * max(1.0, L) * (lp**p + dlp**p) ** (1.0 / p)
    return OneDTraceReport(
        a=float(a),
        b=float(b),
        p=float(p),
        sup=sup,
        lp_norm=lp,
        dlp_norm=dlp,
        endpoint_estimates=(est_a, est_b),
        endpoints_zero=(zero_a, zero_b),
        member=bool(zero_a and zero_b),
        two_term_bound=float(two_term),
        collapsed_bound=float(collapsed),
        power_sum_bound=float(power_sum),
        power_sum_holds=bool(sup <= power_sum * (1.0 + 1e-9)),
        threshold=float(threshold),
    )
