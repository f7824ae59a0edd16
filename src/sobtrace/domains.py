"""A gallery of explicit domains with exact distance-to-boundary fields.

Every gallery domain carries an exact inside predicate, a bounding box, and
an exact distance function built from boundary primitives (segments and
circular arcs).  Rasterization samples cell centers on a uniform grid;
Monte Carlo ball-portion probes use the exact predicate, never the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .lorentz import DistributionModel
from .report import Report, csv_text

__all__ = [
    "Domain",
    "GridDomain",
    "ProbeRow",
    "BallPortionReport",
    "ball_volume",
    "unit_cube",
    "punctured_ball",
    "rectangle",
    "rooms_and_passages",
    "squares_stack",
    "crocodile",
    "skyscrapers",
    "gallery",
    "rasterize",
    "ball_portion_ratio",
    "ball_portion_scan",
    "render_svg",
    "boundary_distance",
]

VIOLATED_SEQUENCE_FOUND = "VIOLATED_SEQUENCE_FOUND"
PLAUSIBLY_SATISFIED = "PLAUSIBLY_SATISFIED"

# Distances below TRUSTED_LAYER_CELLS * h are not trusted: a cell that close
# to the boundary cannot resolve it.
TRUSTED_LAYER_CELLS = 2


def ball_volume(n: int) -> float:
    """Lebesgue measure of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# exact point-to-primitive distances
#
# Points travel as a list of coordinate columns, one contiguous array per
# axis: numpy adds and gathers those several times faster than the rows of
# an (M, n) array.

# point sets of at least _CULL_MIN_POINTS points are binned into square tiles
# of about _TILE_POINTS points, and each tile evaluates only the primitives
# that can hold the nearest boundary point of one of its points
_CULL_MIN_POINTS = 4096
_TILE_POINTS = 256
# tile culling keeps a primitive within this share of the coordinate scale of
# the nearest one; rounding errors in the distances are about 2^-50 of it
_CULL_SLACK = 2.0**-30


def _sum_sq(cols) -> np.ndarray:
    # column by column: the order np.add.reduce (and so np.linalg.norm) sums
    # a last axis shorter than 8
    s = cols[0] * cols[0]
    for c in cols[1:]:
        s += c * c
    return s


def _rows_dot(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The products rows @ v of an (M, n) array, rounded as numpy does for
    two or more rows."""
    if len(rows) == 1:
        # numpy sends one row to a dot kernel that rounds differently from
        # its matrix-vector kernel; a padded row takes the common path
        return (np.repeat(rows, 2, axis=0) @ v)[:1]
    return rows @ v


def _squared_distance(prim, cols) -> np.ndarray:
    """Squared distance from the points in cols to one primitive.

    ("segment", a, b) is the closed segment ab; ("arc", c, R, a0, a1) is
    the arc of circle(c, R) from angle a0 to a1 (a0 < a1).  The arithmetic
    is that of the distance np.linalg.norm gives, so the square root of the
    result is that distance bit for bit (the radial term |rho - R| comes
    back exactly from its square unless that square underflows, below
    about 1e-154).
    """
    if prim[0] == "segment":
        a = np.asarray(prim[1], dtype=float)
        d = np.asarray(prim[2], dtype=float) - a
        L2 = float(d @ d)
        # the offsets x - a as the rows of one array, written in place
        rel = np.empty((len(cols[0]), len(cols)))
        for i, (x, ai) in enumerate(zip(cols, a)):
            np.subtract(x, ai, out=rel[:, i])
        if L2 == 0.0:
            return _sum_sq(rel.T)
        t = _rows_dot(rel, d)
        t /= L2
        np.clip(t, 0.0, 1.0, out=t)
        # (x - (a + t d))^2 summed axis by axis, in the buffers of the
        # products t d; the last axis overwrites t
        s = None
        for i, (x, ai, di) in enumerate(zip(cols, a, d)):
            q = np.multiply(t, di, out=t if i == len(cols) - 1 else None)
            q += ai
            np.subtract(x, q, out=q)
            q *= q
            s = q if s is None else np.add(s, q, out=s)
        return s
    if prim[0] == "arc":
        _, c, R, a0, a1 = prim
        c = np.asarray(c, dtype=float)
        rx, ry = cols[0] - c[0], cols[1] - c[1]
        radial = np.sqrt(_sum_sq((rx, ry))) - R
        # angles normalized into [a0, a0 + 2 pi)
        theta = a0 + np.mod(np.arctan2(ry, rx) - a0, 2.0 * math.pi)
        ends = np.inf
        for angle in (a0, a1):
            e = c + R * np.array([math.cos(angle), math.sin(angle)])
            ends = np.minimum(ends, _sum_sq((cols[0] - e[0], cols[1] - e[1])))
        return np.where(theta <= a1, radial * radial, ends)
    raise ValueError(f"unknown primitive {prim[0]!r}")


def _coordinate_scale(primitives, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest coordinate magnitude among the points and the primitives."""
    scale = float(max(np.abs(lo).max(), np.abs(hi).max()))
    for prim in primitives:
        if prim[0] == "segment":
            scale = max(scale, *map(abs, prim[1]), *map(abs, prim[2]))
        else:
            scale = max(scale, max(map(abs, prim[1])) + abs(prim[2]))
    return scale


def _tiled_min(primitives, cols) -> np.ndarray | None:
    """Minimum squared distance over the primitives, evaluated by tiles.

    Points are sorted into square tiles of half-diagonal r.  A tile whose
    centre lies at distance D_p from primitive p keeps p only when
    D_p - r <= min_q D_q + r + slack: for a point x of the tile,
    d(x, p) >= D_p - r and d(x, q) <= D_q + r, so a dropped primitive is
    farther from every point of the tile than the nearest one, and
    ``slack`` covers rounding.  Returns None for points that span no finite
    box, which the caller evaluates without tiles.
    """
    n, m = len(cols), len(cols[0])
    lo = np.array([c.min() for c in cols])
    hi = np.array([c.max() for c in cols])
    span = float((hi - lo).max())
    if not (math.isfinite(span) and span > 0.0):
        return None
    ext = np.maximum(hi - lo, span / 64.0)
    side = (float(np.prod(ext)) * _TILE_POINTS / m) ** (1.0 / n)
    shape = np.maximum(np.ceil(ext / side).astype(np.intp), 1)
    tile = np.zeros(m, dtype=np.intp)
    for c, lo_i, k in zip(cols, lo, shape):
        tile = tile * k + np.minimum(((c - lo_i) / side).astype(np.intp), k - 1)
    order = np.argsort(tile, kind="stable")
    tile = tile[order]
    cols = [c[order] for c in cols]
    starts = np.flatnonzero(np.r_[True, tile[1:] != tile[:-1]])
    counts = np.diff(np.r_[starts, m])
    centres = [lo_i + (i + 0.5) * side
               for lo_i, i in zip(lo, np.unravel_index(tile[starts], shape))]
    D = np.sqrt([_squared_distance(prim, centres) for prim in primitives])
    r = 0.5 * side * math.sqrt(n)
    slack = _CULL_SLACK * _coordinate_scale(primitives, lo, hi)
    keeps = D - r <= D.min(axis=0) + r + slack
    best = np.full(m, np.inf)
    for prim, keep in zip(primitives, keeps):
        if not keep.any():
            continue
        # the points of the kept tiles: concatenated runs [start, start + count)
        c = counts[keep]
        ends = np.cumsum(c)
        idx = np.arange(ends[-1]) + np.repeat(starts[keep] - (ends - c), c)
        sq = _squared_distance(prim, [col[idx] for col in cols])
        best[idx] = np.minimum(best[idx], sq, out=sq)
    out = np.empty_like(best)
    out[order] = best
    return out


def boundary_distance(primitives, pts) -> np.ndarray:
    """Exact distance from points to the nearest of the boundary primitives.

    pts is one point, shape (n,), which gives a float, or points along the
    last axis of an array.  Squared distances are reduced by a running
    minimum and the square root is taken once; as sqrt is monotone and
    correctly rounded, this equals the minimum of the per-primitive
    distances bit for bit.  Large point sets skip, tile by tile, the
    primitives that cannot be nearest (see ``_tiled_min``), which leaves
    the result unchanged.
    """
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, pts.shape[-1])
    cols = [np.ascontiguousarray(flat[:, i]) for i in range(flat.shape[1])]
    best = None
    if len(flat) >= _CULL_MIN_POINTS and len(primitives) > 1:
        best = _tiled_min(primitives, cols)
    if best is None:
        best = np.full(len(flat), np.inf)
        for prim in primitives:
            np.minimum(best, _squared_distance(prim, cols), out=best)
    out = np.sqrt(best).reshape(pts.shape[:-1])
    return float(out) if pts.ndim == 1 else out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """An open set with exact membership and distance oracles.

    descriptor holds the tagged construction parameters and is what gets
    serialized; callables are runtime companions rebuilt from it.
    ``inside`` and ``distance_fn`` take points along the last axis of an
    array; rasterize calls ``distance_fn`` only at points inside the domain.
    Without a ``distance_fn``, a domain with boundary primitives measures
    the distance to them with ``boundary_distance``.  ``boundary``
    primitives, when given, must trace the whole boundary of the set where
    ``inside`` holds: rasterize lets one cell decide a block of cells that
    is far from every primitive.
    """

    dimension: int
    bbox: np.ndarray
    inside: Callable
    measure: float | None
    descriptor: dict
    distance_fn: Callable | None = None
    boundary: tuple = ()
    ratio_models: dict = field(default_factory=dict)
    violation_candidates: tuple = ()
    boundary_probes: tuple = ()
    partition: Callable | None = None
    profile_lower_bound: Callable | None = None
    registered_witnesses: Callable | None = None
    thinnest_feature: float | None = None

    def __post_init__(self):
        # a domain without a closed form measures distance to its primitives;
        # boundary_distance is looked up per call so it can be rebound
        if self.distance_fn is None and self.boundary:
            prims = self.boundary
            object.__setattr__(self, "distance_fn",
                               lambda pts: boundary_distance(prims, pts))

    def to_json(self) -> str:
        return json.dumps(self.descriptor, sort_keys=True)


# ---------------------------------------------------------------------------
# gallery


def unit_cube(n: int = 2) -> Domain:
    """Open unit cube (0,1)^n with d(x) = min_i min(x_i, 1 - x_i)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    bbox = np.array([[0.0, 1.0]] * n)

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        return np.all((pts > 0.0) & (pts < 1.0), axis=-1)

    def dist(pts):
        pts = np.asarray(pts, dtype=float)
        return np.min(np.minimum(pts, 1.0 - pts), axis=-1)

    def mu_inv_d(xi: float) -> float:
        # measure of {1/d > xi}: 1 for xi <= 2, 1-(1-2/xi)^n beyond
        if xi <= 2.0:
            return 1.0
        return -math.expm1(n * math.log1p(-2.0 / xi))

    def quantile_inv_d(t: float) -> float:
        if not 0 < t < 1:
            raise ValueError("t must be in (0, 1)")
        return 2.0 / -math.expm1(math.log1p(-t) / n)

    model = DistributionModel(
        mu=mu_inv_d,
        total_measure=1.0,
        label=f"cube{n}_inv_d",
        scale_hint=2.0 * n,
        quantile=quantile_inv_d,
    )

    boundary = ()
    probes = ()
    if n == 2:
        boundary = (
            ("segment", (0.0, 0.0), (1.0, 0.0)),
            ("segment", (1.0, 0.0), (1.0, 1.0)),
            ("segment", (1.0, 1.0), (0.0, 1.0)),
            ("segment", (0.0, 1.0), (0.0, 0.0)),
        )
        radii = (2.0**-3, 2.0**-4, 2.0**-5)
        probes = (
            ((0.5, 0.0), radii),
            ((0.5, 1.0), radii),
            ((0.0, 0.5), radii),
            ((1.0, 0.5), radii),
            ((0.0, 0.0), radii),
            ((1.0, 1.0), radii),
        )

    return Domain(
        dimension=n,
        bbox=bbox,
        inside=inside,
        distance_fn=dist,
        measure=1.0,
        descriptor={"tag": "cube", "dimension": n},
        boundary=boundary,
        ratio_models={"inv_d": model},
        boundary_probes=probes,
    )


def punctured_ball(n: int = 2) -> Domain:
    """Open unit ball minus its center; d(x) = min(|x|, 1 - |x|)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    omega = ball_volume(n)
    bbox = np.array([[-1.0, 1.0]] * n)

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        return (r > 0.0) & (r < 1.0)

    def dist(pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        return np.minimum(r, 1.0 - r)

    def mu_ratio(xi: float) -> float:
        # u = 1 - |x|: u/d is 1 outside B(0,1/2) and 1/|x| - 1 inside
        return omega if xi < 1.0 else omega / (xi + 1.0) ** n

    def quantile_ratio(t: float) -> float:
        if not 0 < t < omega:
            raise ValueError(f"t must be in (0, {omega})")
        return max(1.0, (omega / t) ** (1.0 / n) - 1.0)

    model = DistributionModel(
        mu=mu_ratio,
        total_measure=omega,
        label=f"punctured_ball{n}_hardy_ratio",
        scale_hint=omega,
        quantile=quantile_ratio,
    )

    boundary = ()
    probes = ()
    if n == 2:
        # the unit circle and the puncture, a segment of length 0
        boundary = (("arc", (0.0, 0.0), 1.0, 0.0, 2.0 * math.pi),
                    ("segment", (0.0, 0.0), (0.0, 0.0)))
        radii = (2.0**-3, 2.0**-4, 2.0**-5)
        probes = (((1.0, 0.0), radii), ((0.0, 1.0), radii))

    return Domain(
        dimension=n,
        bbox=bbox,
        inside=inside,
        distance_fn=dist,
        measure=omega,
        descriptor={"tag": "punctured_ball", "dimension": n},
        boundary=boundary,
        ratio_models={"hardy_ratio": model},
        boundary_probes=probes,
    )


def rectangle(a: float) -> Domain:
    """Open rectangle (0,1) x (0,a) with 0 < a < 1."""
    if not 0 < a < 1:
        raise ValueError("need 0 < a < 1")
    bbox = np.array([[0.0, 1.0], [0.0, a]])

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (x > 0) & (x < 1) & (y > 0) & (y < a)

    def dist(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, a - y))

    boundary = (
        ("segment", (0.0, 0.0), (1.0, 0.0)),
        ("segment", (1.0, 0.0), (1.0, a)),
        ("segment", (1.0, a), (0.0, a)),
        ("segment", (0.0, a), (0.0, 0.0)),
    )
    return Domain(
        dimension=2,
        bbox=bbox,
        inside=inside,
        distance_fn=dist,
        measure=a,
        descriptor={"tag": "rectangle", "a": a,
                    "corners": [[0.0, 0.0], [1.0, 0.0], [0.0, a], [1.0, a]]},
        boundary=boundary,
        profile_lower_bound=lambda s: math.sqrt(2.0 * a * s),
    )


def rooms_geometry(kmax: int) -> dict:
    """Centers, radii, passage widths, and chord abscissas of the chain."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    ks = np.arange(1, kmax + 1)
    radii = 2.0 ** (-ks.astype(float))
    widths = 2.0 ** (-4.0 * ks[:-1])  # passage k joins rooms k and k+1
    centers = np.zeros(kmax)
    for k in range(1, kmax):
        centers[k] = centers[k - 1] + radii[k - 1] + 2.0 ** -(k) + radii[k]
    hw = widths / 2.0
    x_exit = centers[:-1] + np.sqrt(radii[:-1] ** 2 - hw**2)
    x_entry = centers[1:] - np.sqrt(radii[1:] ** 2 - hw**2)
    # circular segment sliced off disc j by the chord of passage half-width
    def seg_area(r, half_w):
        q = np.sqrt(r**2 - half_w**2)
        return r**2 * np.arccos(q / r) - q * half_w

    seg_right = seg_area(radii[:-1], hw)   # sliver of room k beyond its right chord
    seg_left = seg_area(radii[1:], hw)     # sliver of room k+1 beyond its left chord
    rect_area = widths * (x_entry - x_exit)
    measure = float(np.sum(np.pi * radii**2) + np.sum(rect_area)
                    - np.sum(seg_right) - np.sum(seg_left))
    return {
        "kmax": kmax,
        "radii": radii,
        "widths": widths,
        "centers": centers,
        "x_exit": x_exit,
        "x_entry": x_entry,
        "seg_right": seg_right,
        "seg_left": seg_left,
        "rect_area": rect_area,
        "measure": measure,
    }


def rooms_tail_cut(geo: dict, m: int) -> tuple[float, float, float]:
    """Cut across passage m-1 at its free-span midpoint.

    Returns (cut_x, tail_measure, cut_width) for E = {x > cut_x}, i.e.
    rooms m..kmax plus the passage halves to their left/right of the cut.
    """
    kmax = geo["kmax"]
    if not 2 <= m <= kmax:
        raise ValueError(f"need 2 <= m <= kmax={kmax}")
    i = m - 2  # passage index joining rooms m-1 and m
    cut_x = 0.5 * (geo["x_exit"][i] + geo["x_entry"][i])
    tail = float(
        np.sum(np.pi * geo["radii"][m - 1 :] ** 2)
        + np.sum(geo["rect_area"][m - 1 :])
        - np.sum(geo["seg_right"][m - 1 :])
        - np.sum(geo["seg_left"][m - 1 :])
        + geo["widths"][i] * (geo["x_entry"][i] - cut_x)
        - geo["seg_left"][i]
    )
    return float(cut_x), tail, float(geo["widths"][i])


def rooms_and_passages(kmax: int = 12) -> Domain:
    """Chain of shrinking discs joined by geometrically thin corridors.

    Room k has radius 2^{-k}; passage k has axis length 2^{-k} and width
    2^{-4k}.  Centers are collinear on the x axis.
    """
    geo = rooms_geometry(kmax)
    radii, widths, centers = geo["radii"], geo["widths"], geo["centers"]
    hw = widths / 2.0
    x_exit, x_entry = geo["x_exit"], geo["x_entry"]

    pad = 0.1
    bbox = np.array(
        [[centers[0] - radii[0] - pad, centers[-1] + radii[-1] + pad],
         [-radii[0] - pad, radii[0] + pad]]
    )

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        out = np.zeros(x.shape, dtype=bool)
        for k in range(kmax):
            out |= (x - centers[k]) ** 2 + y**2 < radii[k] ** 2
        for k in range(kmax - 1):
            out |= (x >= centers[k]) & (x <= centers[k + 1]) & (np.abs(y) < hw[k])
        return out

    prims = []
    for k in range(kmax):
        alpha = math.asin(hw[k] / radii[k]) if k < kmax - 1 else None
        beta = math.asin(hw[k - 1] / radii[k]) if k > 0 else None
        c = (centers[k], 0.0)
        if alpha is not None and beta is not None:
            prims.append(("arc", c, radii[k], alpha, math.pi - beta))
            prims.append(("arc", c, radii[k], math.pi + beta, 2.0 * math.pi - alpha))
        elif alpha is not None:  # first room: only a right opening
            prims.append(("arc", c, radii[k], alpha, 2.0 * math.pi - alpha))
        else:  # last room: only a left opening
            prims.append(("arc", c, radii[k], math.pi + beta, 3.0 * math.pi - beta))
    for k in range(kmax - 1):
        prims.append(("segment", (x_exit[k], hw[k]), (x_entry[k], hw[k])))
        prims.append(("segment", (x_exit[k], -hw[k]), (x_entry[k], -hw[k])))
    prims = tuple(prims)

    def witnesses(gd: "GridDomain", s: float):
        out = []
        for m in range(2, kmax + 1):
            cut_x, tail, width = rooms_tail_cut(geo, m)
            if tail >= s:
                mask = _cells_beyond(gd, axis=0, cut=cut_x)
                out.append(
                    {
                        "kind": f"rooms_tail_cut_m{m}",
                        "mask": mask,
                        "analytic_perimeter": width,
                        "analytic_measure": tail,
                    }
                )
        return out

    probe_list = []
    for k in range(kmax):
        r = radii[k]
        probe_list.append(((centers[k], r), (r / 2, r / 4, r / 8)))
    for k in range(min(kmax - 1, 2)):
        mid = 0.5 * (x_exit[k] + x_entry[k])
        w = widths[k]
        probe_list.append(((mid, hw[k]), (w / 2, w / 4, w / 8)))

    return Domain(
        dimension=2,
        bbox=bbox,
        inside=inside,
        measure=geo["measure"],
        descriptor={
            "tag": "rooms_and_passages",
            "kmax": kmax,
            "centers": centers.tolist(),
            "radii": radii.tolist(),
            "widths": widths.tolist(),
        },
        boundary=prims,
        boundary_probes=tuple(probe_list),
        registered_witnesses=witnesses,
        thinnest_feature=float(widths[-1]),
    )


def squares_stack(kmax: int = 12) -> Domain:
    """Base slab (-1,1) x (-1,0) with a shrinking stack of squares on top.

    Square k sits on the interval I_k with side length(I_k); consecutive
    squares are separated by gaps of width 2^{-2k}, which defeat the
    uniform outer ball-portion property along the top edge.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    lefts = [0.5]
    rights = [1.0]
    for k in range(2, kmax + 1):
        lefts.append(2.0**-k)
        rights.append(2.0 ** -(k - 1) - 2.0 ** (-2 * k))
    lefts = np.array(lefts)
    rights = np.array(rights)
    sides = rights - lefts

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        phi = np.zeros(x.shape)
        for l, r, s in zip(lefts, rights, sides):
            m = (x > l) & (x < r)
            phi = np.where(m, s, phi)
        return (x > -1.0) & (x < 1.0) & (y > -1.0) & (y < phi)

    prims = [
        ("segment", (-1.0, -1.0), (1.0, -1.0)),
        ("segment", (-1.0, -1.0), (-1.0, 0.0)),
        ("segment", (1.0, -1.0), (1.0, 0.5)),
        ("segment", (-1.0, 0.0), (float(lefts[-1]), 0.0)),
    ]
    for k in range(kmax):
        l, r, s = float(lefts[k]), float(rights[k]), float(sides[k])
        prims.append(("segment", (l, 0.0), (l, s)))
        prims.append(("segment", (l, s), (r, s)))
        if k == 0:
            pass  # right wall of square 1 is part of the domain wall x = 1
        else:
            prims.append(("segment", (r, s), (r, 0.0)))
        if k > 0:
            prims.append(("segment", (r, 0.0), (float(lefts[k - 1]), 0.0)))
    prims = tuple(prims)

    # gap-midpoint probes with ball radius = adjacent square side: the
    # complement portion decays like 1/(pi (2^k - 1)) along k
    seq = []
    for k in range(2, min(kmax, 6) + 1):
        gap_mid = 2.0 ** -(k - 1) - 2.0 ** (-2 * k - 1)
        rho = 2.0**-k - 2.0 ** (-2 * k)
        seq.append(((gap_mid, 0.0), rho))

    probe_list = [(( -1.0, -0.5), (0.125, 0.0625, 0.03125)),
                  ((0.0, -1.0), (0.125, 0.0625, 0.03125))]

    return Domain(
        dimension=2,
        bbox=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        inside=inside,
        measure=float(2.0 + np.sum(sides**2)),
        descriptor={
            "tag": "squares_stack",
            "kmax": kmax,
            "intervals": [[float(l), float(r)] for l, r in zip(lefts, rights)],
        },
        boundary=prims,
        violation_candidates=(tuple(seq),),
        boundary_probes=tuple(probe_list),
        thinnest_feature=float(2.0 ** (-2 * kmax)),
    )


def crocodile(kmax: int = 12) -> Domain:
    """Square (-1,1)^2 minus a toothed wedge along the positive x axis.

    The mouth is bounded by piecewise-linear profiles a (above) and b
    (below) with vertices at ternary scales; its thickness is exactly x/2,
    so the area is 4 - 1/4 regardless of the truncation depth.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    ax, ay = [0.0], [0.0]
    bx, by = [0.0], [0.0]
    for k in range(kmax, 0, -1):
        t = 3.0**-k
        ax.extend([t, 2 * t])
        ay.extend([0.0, t])
        bx.extend([t, 2 * t])
        by.extend([-t / 2.0, 0.0])
    ax.append(1.0)
    ay.append(0.0)
    bx.append(1.0)
    by.append(-0.5)
    ax, ay, bx, by = map(np.array, (ax, ay, bx, by))

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        box = (x > -1.0) & (x < 1.0) & (y > -1.0) & (y < 1.0)
        in_mouth_x = (x >= 0.0) & (x <= 1.0)
        a_val = np.interp(x, ax, ay)
        b_val = np.interp(x, bx, by)
        mouth = in_mouth_x & (y <= a_val) & (y >= b_val)
        return box & ~mouth

    prims = [
        ("segment", (-1.0, -1.0), (1.0, -1.0)),
        ("segment", (-1.0, -1.0), (-1.0, 1.0)),
        ("segment", (-1.0, 1.0), (1.0, 1.0)),
        ("segment", (1.0, 0.0), (1.0, 1.0)),
        ("segment", (1.0, -1.0), (1.0, -0.5)),
    ]
    for i in range(len(ax) - 1):
        prims.append(("segment", (float(ax[i]), float(ay[i])),
                      (float(ax[i + 1]), float(ay[i + 1]))))
    for i in range(len(bx) - 1):
        prims.append(("segment", (float(bx[i]), float(by[i])),
                      (float(bx[i + 1]), float(by[i + 1]))))
    prims = tuple(prims)

    probe_list = [((0.0, 0.0), (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8))]
    for k in (1, 2, 3):
        probe_list.append(((2.0 * 3.0**-k, 3.0**-k), (3.0**-k / 2, 3.0**-k / 4)))
    probe_list.append(((-1.0, 0.0), (0.125, 0.0625)))

    return Domain(
        dimension=2,
        bbox=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        inside=inside,
        measure=3.75,
        descriptor={"tag": "crocodile", "kmax": kmax},
        boundary=prims,
        boundary_probes=tuple(probe_list),
        thinnest_feature=float(3.0**-kmax / 2.0),
    )


def skyscrapers(kmax: int = 12) -> Domain:
    """Base room (-1,1) x (-1,0) with towers (2^{-k}, 2^{-k} + 2^{-k-3}) x [0,1).

    All walls are dyadic, so a grid with dyadic h rasterizes the truncated
    domain exactly.  The isoperimetric profile is bounded below by
    s / sqrt(2).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    lefts = np.array([2.0**-k for k in range(1, kmax + 1)])
    widths = np.array([2.0 ** -(k + 3) for k in range(1, kmax + 1)])

    def inside(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        base = (x > -1.0) & (x < 1.0) & (y > -1.0) & (y < 0.0)
        tower = np.zeros(x.shape, dtype=bool)
        for l, w in zip(lefts, widths):
            tower |= (x > l) & (x < l + w) & (y >= 0.0) & (y < 1.0)
        return base | tower

    prims = [
        ("segment", (-1.0, -1.0), (1.0, -1.0)),
        ("segment", (-1.0, -1.0), (-1.0, 0.0)),
        ("segment", (1.0, -1.0), (1.0, 0.0)),
        ("segment", (-1.0, 0.0), (float(lefts[-1]), 0.0)),
        ("segment", (float(lefts[0] + widths[0]), 0.0), (1.0, 0.0)),
    ]
    for k in range(kmax):
        l, w = float(lefts[k]), float(widths[k])
        prims.append(("segment", (l, 0.0), (l, 1.0)))
        prims.append(("segment", (l + w, 0.0), (l + w, 1.0)))
        prims.append(("segment", (l, 1.0), (l + w, 1.0)))
        if k + 1 < kmax:
            nxt = float(lefts[k + 1] + widths[k + 1])
            prims.append(("segment", (nxt, 0.0), (l, 0.0)))
    prims = tuple(prims)

    def partition(gd: "GridDomain") -> list[np.ndarray]:
        cx, cy = gd.center_axes()
        X, Y = np.meshgrid(cx, cy, indexing="ij")
        parts = [gd.occupancy & (Y < 0.0)]
        for l, w in zip(lefts, widths):
            parts.append(gd.occupancy & (Y > 0.0) & (X > l) & (X < l + w))
        return [p for p in parts if p.any()]

    probe_list = []
    for k in range(min(kmax, 3)):
        l, w = float(lefts[k]), float(widths[k])
        probe_list.append(((l, 0.5), (w / 2, w / 4, w / 8)))
    probe_list.append(((0.0, -1.0), (0.125, 0.0625, 0.03125)))

    return Domain(
        dimension=2,
        bbox=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        inside=inside,
        measure=float(2.0 + np.sum(widths)),
        descriptor={
            "tag": "skyscrapers",
            "kmax": kmax,
            "towers": [[float(l), float(l + w)] for l, w in zip(lefts, widths)],
        },
        boundary=prims,
        partition=partition,
        profile_lower_bound=lambda s: s / math.sqrt(2.0),
        boundary_probes=tuple(probe_list),
        thinnest_feature=float(widths[-1]),
    )


_GALLERY = {
    "cube1": lambda kmax: unit_cube(1),
    "cube2": lambda kmax: unit_cube(2),
    "cube3": lambda kmax: unit_cube(3),
    "punctured_ball2": lambda kmax: punctured_ball(2),
    "punctured_ball3": lambda kmax: punctured_ball(3),
    "rooms_and_passages": rooms_and_passages,
    "squares_stack": squares_stack,
    "crocodile": crocodile,
    "skyscrapers": skyscrapers,
}


def gallery(tag: str, kmax: int = 12) -> Domain:
    """Build a gallery domain by tag."""
    if tag not in _GALLERY:
        raise ValueError(f"unknown domain tag {tag!r}; known: {sorted(_GALLERY)}")
    return _GALLERY[tag](kmax)


# ---------------------------------------------------------------------------
# rasterization


def _center_axes(origin, h: float, shape) -> list[np.ndarray]:
    """Per axis, the cell-centre coordinates origin + (i + 1/2) h."""
    return [origin[i] + (np.arange(n) + 0.5) * h for i, n in enumerate(shape)]


def _centers(origin, h: float, shape) -> np.ndarray:
    """Cell centres as an array of shape (*shape, N)."""
    axes = _center_axes(origin, h, shape)
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)


@dataclass(frozen=True)
class GridDomain:
    """Uniform-grid sampling of a domain at cell centers."""

    domain: Domain
    h: float
    origin: np.ndarray
    occupancy: np.ndarray
    distance_field: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def cell_measure(self) -> float:
        return self.h**self.domain.dimension

    @property
    def grid_measure(self) -> float:
        return float(self.occupancy.sum()) * self.cell_measure

    def center_axes(self) -> list[np.ndarray]:
        return _center_axes(self.origin, self.h, self.occupancy.shape)

    def centers(self) -> np.ndarray:
        return _centers(self.origin, self.h, self.occupancy.shape)

    def to_csv(self) -> str:
        return csv_text(",".join("ijk"[:self.occupancy.ndim]) + ",inside,distance",
                        ((*idx, self.occupancy[idx], self.distance_field[idx])
                         for idx in np.ndindex(self.occupancy.shape)))


def face_pairs(ndim: int):
    """Per axis, the index tuples (lo, hi) with a[lo] and a[hi] face neighbours.

    ``lo`` drops the last slab along the axis and ``hi`` the first, so
    a[hi][i] is the cell one step up the axis from a[lo][i].
    """
    for axis in range(ndim):
        lo = [slice(None)] * ndim
        hi = [slice(None)] * ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        yield tuple(lo), tuple(hi)


def _cells_beyond(gd: GridDomain, axis: int, cut: float) -> np.ndarray:
    ax = gd.center_axes()[axis]
    sel = ax > cut
    shape = [1] * gd.occupancy.ndim
    shape[axis] = len(ax)
    return gd.occupancy & sel.reshape(shape)


# rasterize classifies the grid by blocks of _BLOCK_CELLS cells a side
_BLOCK_CELLS = 16


def _points(axes, mask) -> np.ndarray:
    """The centres of the cells in mask, in row-major order, as (M, N) rows."""
    pts = np.empty((np.count_nonzero(mask), len(axes)))
    for i, ax in enumerate(axes):
        shape = [1] * len(axes)
        shape[i] = -1
        pts[:, i] = np.broadcast_to(ax.reshape(shape), mask.shape)[mask]
    return pts


def _block_cells(blocks: np.ndarray, shape) -> np.ndarray:
    """Each block's value spread over its cells, in a grid of this shape."""
    for axis, n in enumerate(shape):
        blocks = np.repeat(blocks, _BLOCK_CELLS, axis=axis)[(slice(None),) * axis
                                                            + (slice(n),)]
    return np.ascontiguousarray(blocks)


def _occupancy_by_blocks(dom: Domain, origin, h: float, counts) -> np.ndarray:
    """dom.inside at every cell centre, found by blocks of cells.

    The centres of a block of _BLOCK_CELLS cells a side lie within its
    half-diagonal r of the block's centre.  A block whose centre is farther
    than r (plus the rounding slack of ``_tiled_min``) from every boundary
    primitive holds no boundary point, so its first cell decides all its
    cells.  ``dom.inside`` is called once, on every cell of the other
    blocks and the first cell of each block.
    """
    b = _BLOCK_CELLS
    centres = [o + (np.arange(-(-n // b)) * b + 0.5 * b) * h
               for o, n in zip(origin, counts)]
    grid = np.stack(np.meshgrid(*centres, indexing="ij"), axis=-1)
    r = 0.5 * (b - 1) * h * math.sqrt(len(counts))
    lo = np.array([c[0] for c in centres])
    hi = np.array([c[-1] for c in centres])
    slack = _CULL_SLACK * _coordinate_scale(dom.boundary, lo, hi)
    far = boundary_distance(dom.boundary, grid) > r + slack
    near = _block_cells(~far, counts)
    first = (slice(None, None, b),) * len(counts)
    ask = near.copy()
    ask[first] = True
    seen = np.zeros(ask.shape, dtype=bool)
    seen[ask] = dom.inside(_points(_center_axes(origin, h, counts), ask))
    return np.where(near, seen, _block_cells(seen[first], counts))


# rasterize refuses grids above this many cells (2^24 float64 cells hold
# 128 MB per field, and the cell centres twice that in 2-D)
_MAX_CELLS = 2**24


def _cell_counts(sides, h: float) -> list[int]:
    # clamping s / h keeps ceil finite; a clamped side alone exceeds the budget
    return [max(1, math.ceil(min(s / h, 2.0 * _MAX_CELLS) - 1e-12)) for s in sides]


def rasterize(dom: Domain, h: float) -> GridDomain:
    """Sample the domain on a uniform grid of spacing h.

    Cell (i_1, ..., i_N) is centered at origin + (i + 1/2) h.  Bounding-box
    sides that are not whole multiples of h are covered by ceil(side/h)
    cells.  Without boundary primitives, the inside predicate sees every
    cell centre.  With them, it sees the cells of the blocks near the
    boundary and one cell of each block far from it, which decides the
    whole block (see ``_occupancy_by_blocks``); the occupancy is the same.
    The distance oracle ``dom.distance_fn`` sees only the centres inside
    the domain, as one (M, N) array in row-major order, and the distance
    field is 0 at the other cells.  The grid's notes say when the domain's
    thinnest feature falls below 2h (such features cannot hold any cell
    center reliably).  Raises
    ValueError for a non-finite or non-positive h, an h above the smallest
    bounding-box side, a grid of more than ``_MAX_CELLS`` cells (before
    allocating it), a domain with no exact distance oracle, or a grid with
    no cell center inside the domain.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if dom.distance_fn is None:
        raise ValueError("domain has no exact distance oracle: give it "
                         "distance_fn or boundary primitives")
    sides = dom.bbox[:, 1] - dom.bbox[:, 0]
    if h > sides.min():
        raise ValueError(f"h = {h:g} exceeds the smallest bbox side {sides.min():g}")
    counts = _cell_counts(sides, h)
    cells = math.prod(counts)
    if cells > _MAX_CELLS:
        k = math.floor(-math.log2(h))
        while math.prod(_cell_counts(sides, 2.0**-k)) > _MAX_CELLS:
            k -= 1
        raise ValueError(f"h = {h:g} needs {cells} cells, above the budget of "
                         f"{_MAX_CELLS}; the finest dyadic h that fits is 2^{-k}")
    notes = []
    for s, n in zip(sides, counts):
        if abs(n * h - s) > 1e-12:
            notes.append(f"bbox side {s:g} covered by {n} cells of {h:g}")
    layer = TRUSTED_LAYER_CELLS * h
    if dom.thinnest_feature is not None and dom.thinnest_feature < layer:
        notes.append(
            f"thinnest feature {dom.thinnest_feature:g} is below "
            f"{TRUSTED_LAYER_CELLS}h = {layer:g}; "
            "sub-resolution parts of the domain drop out of the grid"
        )
    origin = dom.bbox[:, 0].copy()
    if dom.boundary:
        occ = _occupancy_by_blocks(dom, origin, h, counts)
    else:
        occ = np.asarray(dom.inside(_centers(origin, h, counts)), dtype=bool)
    if not occ.any():
        raise ValueError(f"no cell center of the grid with h = {h:g} lies "
                         "inside the domain")
    dist_field = np.zeros(occ.shape)
    dist_field[occ] = dom.distance_fn(_points(_center_axes(origin, h, counts), occ))
    return GridDomain(
        domain=dom,
        h=float(h),
        origin=origin,
        occupancy=occ,
        distance_field=dist_field,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Monte Carlo ball portions


class ProbeRow(NamedTuple):
    """One ball-portion probe: a Monte Carlo proportion and its standard error."""

    point: tuple
    radius: float
    ratio: float
    stderr: float
    n: int


def _probe_rng(seed: int, x: np.ndarray, r: float) -> np.random.Generator:
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for val in list(np.asarray(x, dtype=float).ravel()) + [float(r)]:
        words.append(int(np.float64(val).view(np.uint64)))
    return np.random.default_rng(np.random.SeedSequence(words))


def ball_portion_ratio(
    dom: Domain, x, r: float, mc_samples: int = 10000, seed: int = 0
) -> ProbeRow:
    """Fraction of B(x, r) lying outside the domain, for x on the boundary.

    Uniform samples in the ball come from rejection sampling out of the
    bounding cube; the generator is keyed on (seed, x, r) so estimates are
    reproducible regardless of evaluation order.
    """
    x = np.asarray(x, dtype=float)
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r!r}")
    if mc_samples < 100:
        raise ValueError("mc_samples must be at least 100")
    if dom.boundary:
        bd = boundary_distance(dom.boundary, x)
        if bd > max(1e-9, 0.05 * r):
            raise ValueError(
                f"point {x.tolist()} is {bd:g} away from the boundary; "
                "ball-portion probes must sit on it"
            )
    rng = _probe_rng(seed, x, r)
    n = int(mc_samples)
    dim = dom.dimension
    accepted = []
    got = 0
    while got < n:
        batch = rng.uniform(-r, r, size=(int(n * 1.5) + 64, dim))
        keep = np.einsum("ij,ij->i", batch, batch) <= r * r
        pts = batch[keep]
        accepted.append(pts)
        got += len(pts)
    pts = np.concatenate(accepted)[:n] + x
    outside = ~np.asarray(dom.inside(pts), dtype=bool)
    ratio = float(outside.mean())
    stderr = math.sqrt(max(ratio * (1.0 - ratio), 1.0 / n) / n)
    point = tuple(float(c) for c in np.atleast_1d(x))
    return ProbeRow(point, float(r), ratio, stderr, n)


@dataclass(frozen=True)
class BallPortionReport(Report):
    """Scan outcome: ProbeRow rows, each (point, radius, ratio, stderr, n)."""

    probes: tuple
    infimum_estimate: float
    verdict: str
    violating_sequence: tuple = ()
    b_threshold: float = 0.01


def _is_violating(rows, b_threshold: float) -> bool:
    # shrinking radii: ratios must not increase (within MC noise) and the
    # last one must fall below the threshold
    if len(rows) < 2:
        return False
    for prev, cur in zip(rows, rows[1:]):
        if cur[2] > prev[2] + 2.0 * (prev[3] + cur[3]):
            return False
    return rows[-1][2] < b_threshold


def ball_portion_scan(
    dom: Domain,
    b_threshold: float = 0.01,
    mc_samples: int = 20000,
    seed: int = 0,
) -> BallPortionReport:
    """Probe the uniform outer ball-portion property along the boundary.

    Registered violating candidates (shrinking radius sequences) are probed
    first; then each registered boundary probe ``dom.boundary_probes``
    over its radius ladder.  A sequence whose ratios trend down below
    b_threshold yields the verdict VIOLATED_SEQUENCE_FOUND; otherwise
    PLAUSIBLY_SATISFIED with the probe infimum.
    """
    if not 0.0 < b_threshold < math.inf:
        raise ValueError(f"b_threshold must be positive and finite, got {b_threshold!r}")
    groups = []
    for seq in dom.violation_candidates:
        groups.append([(np.asarray(p, dtype=float), float(r)) for p, r in seq])
    for p, rad in dom.boundary_probes:
        groups.append([(np.asarray(p, dtype=float), float(r)) for r in rad])
    if not groups:
        raise ValueError("no probes: domain has no registered boundary probes")

    all_rows = []
    violating = ()
    for group in groups:
        rows = []
        for p, r in sorted(group, key=lambda pr: -pr[1]):
            rows.append(ball_portion_ratio(dom, p, r, mc_samples=mc_samples, seed=seed))
        all_rows.extend(rows)
        if not violating and _is_violating(rows, b_threshold):
            violating = tuple(rows)
    inf_est = min(r[2] for r in all_rows)
    verdict = VIOLATED_SEQUENCE_FOUND if violating else PLAUSIBLY_SATISFIED
    return BallPortionReport(
        probes=tuple(all_rows),
        infimum_estimate=float(inf_est),
        verdict=verdict,
        violating_sequence=violating,
        b_threshold=float(b_threshold),
    )


# ---------------------------------------------------------------------------
# SVG line art


def render_svg(dom: Domain, width_px: int = 640) -> str:
    """Line-art rendering of a 2-D domain boundary, captioned with its tag."""
    if dom.dimension != 2 or not dom.boundary:
        raise ValueError("SVG rendering needs a 2-D domain with boundary primitives")
    (x0, x1), (y0, y1) = dom.bbox
    margin = 0.05 * max(x1 - x0, y1 - y0)
    x0, x1 = x0 - margin, x1 + margin
    y0, y1 = y0 - margin, y1 + margin
    scale = width_px / (x1 - x0)
    height_px = int(round((y1 - y0) * scale))

    def X(x):
        return (x - x0) * scale

    def Y(y):
        return (y1 - y) * scale  # flip so +y points up

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    for prim in dom.boundary:
        if prim[0] == "segment":
            (ax_, ay_), (bx_, by_) = prim[1], prim[2]
            parts.append(
                f'<line x1="{X(ax_):.6g}" y1="{Y(ay_):.6g}" x2="{X(bx_):.6g}" '
                f'y2="{Y(by_):.6g}" stroke="black" stroke-width="1"/>'
            )
        else:
            _, (cx, cy), R, a0, a1 = prim
            if a1 - a0 >= 2.0 * math.pi - 1e-12:
                parts.append(
                    f'<circle cx="{X(cx):.6g}" cy="{Y(cy):.6g}" r="{R * scale:.6g}" '
                    f'fill="none" stroke="black" stroke-width="1"/>'
                )
            else:
                sx, sy = cx + R * math.cos(a0), cy + R * math.sin(a0)
                ex, ey = cx + R * math.cos(a1), cy + R * math.sin(a1)
                large = 1 if (a1 - a0) > math.pi else 0
                # sweep = 0 because the y axis is flipped
                parts.append(
                    f'<path d="M {X(sx):.6g} {Y(sy):.6g} A {R * scale:.6g} '
                    f'{R * scale:.6g} 0 {large} 0 {X(ex):.6g} {Y(ey):.6g}" '
                    f'fill="none" stroke="black" stroke-width="1"/>'
                )
    caption = dom.descriptor.get("tag", "domain")
    if "kmax" in dom.descriptor:
        caption += f" (depth {dom.descriptor['kmax']})"
    parts.append(
        f'<text x="8" y="{height_px - 8}" font-family="monospace" '
        f'font-size="12">{caption}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
