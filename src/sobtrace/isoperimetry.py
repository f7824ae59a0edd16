"""Relative isoperimetry on grids: perimeters, profile bounds, witnesses.

The grid perimeter of a cell set E counts interior faces separating E from
the rest of the occupied grid, weighted by h^(N-1).  For domains whose
boundary is aligned with the grid this equals the relative perimeter of the
cell union exactly, so analytic lower bounds can be checked against grid
witnesses without discretization slack on the perimeter side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domains import Domain, GridDomain, face_pairs, rooms_geometry, rooms_tail_cut

__all__ = [
    "GridSet",
    "grid_perimeter",
    "superadditivity_check",
    "RectangleProfile",
    "rectangle_profile",
    "skyscraper_profile_bound",
    "rooms_passages_witness",
    "ProfilePoint",
    "profile_search",
]


@dataclass(frozen=True)
class GridSet:
    """A measurable cell set inside a rasterized domain."""

    parent: GridDomain
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != self.parent.occupancy.shape:
            raise ValueError("mask shape does not match the grid")
        if self.mask.dtype != bool:
            object.__setattr__(self, "mask", self.mask.astype(bool))
        if np.any(self.mask & ~self.parent.occupancy):
            raise ValueError("mask contains cells outside the domain")

    @property
    def measure(self) -> float:
        return float(self.mask.sum()) * self.parent.cell_measure


def _face_count(mask: np.ndarray, inside: np.ndarray) -> int:
    """Interior faces between mask cells and inside-but-not-mask cells."""
    other = inside & ~mask
    total = 0
    for lo, hi in face_pairs(mask.ndim):
        total += int(np.count_nonzero(mask[lo] & other[hi]))
        total += int(np.count_nonzero(other[lo] & mask[hi]))
    return total


def grid_perimeter(E: GridSet) -> float:
    """Relative perimeter of E inside its grid domain."""
    gd = E.parent
    n = gd.domain.dimension
    return _face_count(E.mask, gd.occupancy) * gd.h ** (n - 1)


def superadditivity_check(E: GridSet, parts=None) -> tuple[float, float]:
    """Compare P(E; Omega) with the sum of P(E & part; part) over a partition.

    Every face counted on the right separates two cells of one part, hence
    is also counted on the left; the comparison is exact integer counting
    scaled by h^(N-1), so lhs >= rhs holds with no tolerance.
    """
    gd = E.parent
    if parts is None:
        if gd.domain.partition is None:
            raise ValueError("domain has no registered partition")
        parts = gd.domain.partition(gd)
    covered = np.zeros_like(gd.occupancy)
    for p in parts:
        if np.any(p & covered):
            raise ValueError("parts overlap")
        if np.any(p & ~gd.occupancy):
            raise ValueError("part leaves the domain")
        covered |= p
    if not np.array_equal(covered, gd.occupancy):
        raise ValueError("parts do not cover the domain")
    n = gd.domain.dimension
    lhs = _face_count(E.mask, gd.occupancy) * gd.h ** (n - 1)
    rhs = sum(_face_count(E.mask & p, p) for p in parts) * gd.h ** (n - 1)
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# closed-form profiles


class RectangleProfile(NamedTuple):
    lower_bound: float
    witness_perimeter: float
    witness: dict


def rectangle_profile(a: float, s: float) -> RectangleProfile:
    """Profile data for the rectangle (0,1) x (0,a) at measure s <= a/2.

    The witness is a corner quarter-disc while it fits the short side
    (s <= a^2/pi) and a full-height vertical strip afterwards; its relative
    perimeter sqrt(pi s) or a is the exact profile value.  The lower bound
    sqrt(2 a s) touches it only at s = a/2.
    """
    if not 0 < a < 1:
        raise ValueError("need 0 < a < 1")
    if s < 0 or s > a / 2.0 + 1e-12:
        raise ValueError("need 0 <= s <= a/2")
    if s == 0:
        return RectangleProfile(0.0, 0.0, {"kind": "empty"})
    lower = math.sqrt(2.0 * a * s)
    if s <= a * a / math.pi:
        rho = 2.0 * math.sqrt(s / math.pi)
        return RectangleProfile(
            lower, math.sqrt(math.pi * s),
            {"kind": "corner_quarter_disc", "radius": rho, "corner": [0.0, 0.0]},
        )
    return RectangleProfile(
        lower, a, {"kind": "vertical_strip", "width": s / a, "x0": 0.0}
    )


def skyscraper_profile_bound(s: float, dom: Domain | None = None) -> float:
    """Lower bound s / sqrt(2) for the tower domain's profile."""
    measure = dom.measure if dom is not None else 2.125
    if not 0 < s <= measure / 2.0:
        raise ValueError("need 0 < s <= half the domain measure")
    return s / math.sqrt(2.0)


def rooms_passages_witness(s: float, kmax: int = 16) -> dict:
    """Tail-cut witness for the rooms chain at measure s in (0, pi/16).

    Picks k with pi 4^{-(k+1)} <= s < pi 4^{-k}; the tail beyond passage
    k-1 has measure at least room k's area pi 4^{-k} > s, and cutting that
    passage costs exactly its width 2^{-4(k-1)} <= (2^8 / pi^2) s^2.
    """
    if not 0 < s < math.pi * 2.0**-4:
        raise ValueError("need 0 < s < pi/16")
    k = math.ceil(math.log2(math.pi / s) / 2.0) - 1
    if k > kmax:
        raise ValueError(f"s = {s:g} needs k = {k} rooms; increase kmax > {k}")
    geo = rooms_geometry(max(kmax, k + 1))
    cut_x, tail, width = rooms_tail_cut(geo, k)
    assert math.pi * 4.0 ** -(k + 1) <= s < math.pi * 4.0**-k, f"bracket broke: {k}, {s}"
    assert tail >= s, f"tail measure {tail:.6g} < s = {s:.6g}"
    bound = 2.0**8 / math.pi**2 * s * s
    assert width <= bound * (1 + 1e-12), f"width {width:g} exceeds quadratic bound {bound:g}"
    return {
        "k": k,
        "cut_passage": k - 1,
        "cut_x": cut_x,
        "tail_measure": tail,
        "perimeter": width,
        "quadratic_bound": bound,
    }


# ---------------------------------------------------------------------------
# grid profile search


@dataclass(frozen=True)
class ProfilePoint:
    """One point of an isoperimetric profile estimate."""

    s: float
    witness_perimeter: float
    analytic_lower_bound: float | None
    witness: dict
    notes: tuple[str, ...] = ()


def _strip_candidates(gd: GridDomain, s: float):
    occ = gd.occupancy
    cm = gd.cell_measure
    need = int(math.ceil(s / cm - 1e-12))
    for axis in range(occ.ndim):
        counts = occ.sum(axis=tuple(i for i in range(occ.ndim) if i != axis))
        for direction in (+1, -1):
            cum = np.cumsum(counts if direction > 0 else counts[::-1])
            cut = int(np.searchsorted(cum, need))
            if cut >= len(cum):
                continue
            idx = np.arange(len(counts))
            sel = idx <= cut if direction > 0 else idx >= len(counts) - 1 - cut
            shape = [1] * occ.ndim
            shape[axis] = len(counts)
            mask = occ & sel.reshape(shape)
            if mask.any() and not np.array_equal(mask, occ):
                yield mask, None, {"kind": f"axis_strip_{axis}_{'+' if direction > 0 else '-'}"}


def _corner_candidates(gd: GridDomain, s: float):
    corners = gd.domain.descriptor.get("corners")
    if not corners:
        return
    rho = 2.0 * math.sqrt(s / math.pi)
    sides = gd.domain.bbox[:, 1] - gd.domain.bbox[:, 0]
    if rho > sides.min():
        return
    centers = gd.centers()
    need = int(math.ceil(s / gd.cell_measure - 1e-12))
    for corner in corners:
        d2 = np.sum((centers - np.asarray(corner, dtype=float)) ** 2, axis=-1)
        order_ok = gd.occupancy & (d2 <= (rho + gd.h) ** 2)
        if order_ok.sum() < need:
            continue
        flat = np.argsort(np.where(gd.occupancy, d2, np.inf), axis=None)[:need]
        mask = np.zeros(gd.occupancy.size, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(gd.occupancy.shape) & gd.occupancy
        if mask.sum() < need:
            continue
        yield mask, math.sqrt(math.pi * s), {
            "kind": "corner_quarter_disc",
            "corner": list(corner),
            "radius": rho,
        }


def _disc_candidate(gd: GridDomain, s: float):
    df = gd.distance_field
    center_idx = np.unravel_index(np.argmax(df), df.shape)
    rho = math.sqrt(s / math.pi) if gd.domain.dimension == 2 else (
        s / (4.0 / 3.0 * math.pi)) ** (1.0 / 3.0)
    if df[center_idx] <= rho:
        return None
    centers = gd.centers()
    c = centers[center_idx]
    d2 = np.sum((centers - c) ** 2, axis=-1)
    need = int(math.ceil(s / gd.cell_measure - 1e-12))
    flat = np.argsort(np.where(gd.occupancy, d2, np.inf), axis=None)[:need]
    mask = np.zeros(gd.occupancy.size, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(gd.occupancy.shape) & gd.occupancy
    if mask.sum() < need:
        return None
    return mask, None, {"kind": "interior_ball", "center": c.tolist(), "radius": rho}


def _local_search(gd: GridDomain, mask: np.ndarray, s: float, budget: int,
                  seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1505]))
    occ = gd.occupancy
    need = int(math.ceil(s / gd.cell_measure - 1e-12))
    best = mask.copy()
    best_faces = _face_count(best, occ)
    cur = best.copy()
    cur_faces = best_faces
    for _ in range(budget):
        boundary_in = np.argwhere(cur & _touches(~cur & occ, cur))
        boundary_out = np.argwhere((occ & ~cur) & _touches(cur, occ & ~cur))
        moves = []
        if cur.sum() > need and len(boundary_in):
            moves.append(("drop", boundary_in))
        if len(boundary_out):
            moves.append(("add", boundary_out))
        if not moves:
            break
        kind, pool = moves[rng.integers(len(moves))]
        idx = tuple(pool[rng.integers(len(pool))])
        cur[idx] = kind == "add"
        cur_faces = _face_count(cur, occ)
        if cur_faces <= best_faces and cur.sum() >= need:
            best = cur.copy()
            best_faces = cur_faces
        elif cur_faces > best_faces + 4:
            cur = best.copy()
            cur_faces = best_faces
    return best


def _touches(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cells of b adjacent (face-wise) to at least one cell of a."""
    out = np.zeros_like(b)
    for lo, hi in face_pairs(a.ndim):
        out[lo] |= a[hi]
        out[hi] |= a[lo]
    return out & b


def profile_search(gd: GridDomain, s: float, budget: int = 0,
                   seed: int = 0) -> ProfilePoint:
    """Estimate the relative isoperimetric profile at measure s from above.

    Candidates: axis-aligned strips, registered corner quarter-discs (with
    analytic perimeter), an interior ball when it fits, registered analytic
    witnesses, and optionally a local flip search seeded from the best grid
    candidate.  The reported value is the smallest perimeter over feasible
    candidates (grid measure, or analytic measure for registered witnesses,
    at least s).  If a grid candidate undercuts a registered analytic lower
    bound by more than 4h the search raises rather than reporting it.
    """
    dom = gd.domain
    lam = gd.grid_measure
    if not 0 < s < lam:
        raise ValueError(f"need 0 < s < grid measure {lam:g}")
    n = dom.dimension
    candidates = []
    for mask, analytic, info in _strip_candidates(gd, s):
        candidates.append((mask, analytic, info))
    for mask, analytic, info in _corner_candidates(gd, s):
        candidates.append((mask, analytic, info))
    disc = _disc_candidate(gd, s)
    if disc is not None:
        candidates.append(disc)
    if dom.registered_witnesses is not None:
        for w in dom.registered_witnesses(gd, s):
            candidates.append(
                (w.get("mask"), w.get("analytic_perimeter"),
                 {k: v for k, v in w.items() if k != "mask"})
            )
    if not candidates:
        raise ValueError("no feasible candidate set at this measure")

    scored = []
    notes = []
    for mask, analytic, info in candidates:
        if analytic is not None:
            scored.append((float(analytic), mask, dict(info), True))
            continue
        if mask is None or not mask.any():
            continue
        per = _face_count(mask, gd.occupancy) * gd.h ** (n - 1)
        if per == 0.0:
            notes.append(f"degenerate zero-perimeter candidate skipped: {info}")
            continue
        scored.append((per, mask, dict(info), False))
    if not scored:
        raise ValueError("no nondegenerate candidate set at this measure")

    if budget > 0:
        grid_only = [c for c in scored if not c[3]]
        if grid_only:
            per0, mask0, info0, _ = min(grid_only, key=lambda c: c[0])
            refined = _local_search(gd, mask0, s, budget, seed)
            per = _face_count(refined, gd.occupancy) * gd.h ** (n - 1)
            if 0.0 < per <= per0:
                scored.append((per, refined,
                               {"kind": "local_search", "start": info0["kind"]}, False))

    best_per, best_mask, best_info, best_is_analytic = min(scored, key=lambda c: c[0])
    lower = dom.profile_lower_bound(s) if dom.profile_lower_bound is not None else None
    if lower is not None and not best_is_analytic and best_per < lower - 4.0 * gd.h:
        raise RuntimeError(
            f"grid witness perimeter {best_per:.6g} undercuts the analytic "
            f"lower bound {lower:.6g} by more than 4h; grid artifact"
        )
    best_info["cells"] = int(best_mask.sum()) if best_mask is not None else None
    best_info["analytic"] = best_is_analytic
    return ProfilePoint(
        s=float(s),
        witness_perimeter=float(best_per),
        analytic_lower_bound=None if lower is None else float(lower),
        witness=best_info,
        notes=tuple(notes),
    )
