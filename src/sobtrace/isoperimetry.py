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
from .report import Report

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


def _perimeter(gd: GridDomain, faces: int) -> float:
    """A face count weighted by the face measure h^(N-1)."""
    return faces * gd.h ** (gd.domain.dimension - 1)


def grid_perimeter(E: GridSet) -> float:
    """Relative perimeter of E inside its grid domain."""
    return _perimeter(E.parent, _face_count(E.mask, E.parent.occupancy))


def superadditivity_check(E: GridSet) -> tuple[float, float]:
    """Compare P(E; Omega) with the sum of P(E & part; part) over a partition.

    The parts come from the domain's ``partition`` hook; they must not
    overlap, must stay inside the domain and must cover it.  Every face
    counted on the right separates two cells of one part, hence is also
    counted on the left; the comparison is exact integer counting scaled by
    h^(N-1), so lhs >= rhs holds with no tolerance.
    """
    gd = E.parent
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
    rhs = _perimeter(gd, sum(_face_count(E.mask & p, p) for p in parts))
    return float(grid_perimeter(E)), float(rhs)


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


def skyscraper_profile_bound(s: float, dom: Domain) -> float:
    """Lower bound for the profile of the tower domain dom at measure s.

    The bound is the domain's ``profile_lower_bound``, s / sqrt(2) for
    ``skyscrapers``; s must lie in (0, half the measure of dom].  A domain
    without that bound raises ``ValueError``.
    """
    if dom.profile_lower_bound is None:
        raise ValueError(f"domain {dom.descriptor.get('tag')!r} has no profile_lower_bound")
    if not 0 < s <= dom.measure / 2.0:
        raise ValueError("need 0 < s <= half the domain measure")
    return dom.profile_lower_bound(s)


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
class ProfilePoint(Report):
    """One point of an isoperimetric profile estimate."""

    s: float
    witness_perimeter: float
    analytic_lower_bound: float | None
    witness: dict
    notes: tuple[str, ...] = ()


def _cells_needed(gd: GridDomain, s: float) -> int:
    """The fewest grid cells whose measure reaches s."""
    return int(math.ceil(s / gd.cell_measure - 1e-12))


def _nearest_cells(gd: GridDomain, d2: np.ndarray, need: int) -> np.ndarray | None:
    """The need occupied cells of smallest d2, or None if fewer are occupied."""
    flat = np.argsort(np.where(gd.occupancy, d2, np.inf), axis=None)[:need]
    mask = np.zeros(gd.occupancy.size, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(gd.occupancy.shape) & gd.occupancy
    return mask if mask.sum() >= need else None


def _strip_candidates(gd: GridDomain, s: float):
    occ = gd.occupancy
    need = _cells_needed(gd, s)
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
    need = _cells_needed(gd, s)
    for corner in corners:
        d2 = np.sum((centers - np.asarray(corner, dtype=float)) ** 2, axis=-1)
        order_ok = gd.occupancy & (d2 <= (rho + gd.h) ** 2)
        if order_ok.sum() < need:
            continue
        mask = _nearest_cells(gd, d2, need)
        if mask is None:
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
    mask = _nearest_cells(gd, d2, _cells_needed(gd, s))
    if mask is None:
        return None
    return mask, None, {"kind": "interior_ball", "center": c.tolist(), "radius": rho}


class _MovePool:
    """One move pool: a 0/1 membership array with a Fenwick tree over it.

    ``select(k)`` returns the flat index of the k-th member in increasing
    index order, which is the row-major order of ``np.argwhere``; it and
    ``set`` take O(log n) steps (Fenwick 1994).
    """

    def __init__(self, member: np.ndarray):
        n = member.size
        # tree[i] sums member over (i - lowbit(i), i]: one prefix-sum pass
        tree = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(member, out=tree[1:])
        self.size = int(tree[-1])
        low = np.arange(n + 1, dtype=np.int32)
        low -= low & -low
        tree -= tree[low]
        self.tree = memoryview(tree)
        self.member = bytearray(member)
        self.n = n

    def set(self, x: int, on: bool) -> None:
        if self.member[x] == on:
            return
        self.member[x] = on
        d = 1 if on else -1
        self.size += d
        tree, n, i = self.tree, self.n, x + 1
        while i <= n:
            tree[i] += d
            i += i & -i

    def select(self, k: int) -> int:
        tree, n, pos = self.tree, self.n, 0
        bit = 1 << (n.bit_length() - 1)
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            bit >>= 1
        return pos


def _local_search(gd: GridDomain, mask: np.ndarray, s: float, budget: int,
                  seed: int) -> np.ndarray:
    """Random single-cell flips from mask; returns the best feasible set.

    Each step draws a move kind, then a cell of its pool: drop a cell of the
    set that touches the rest of the domain (only while the set holds more
    cells than s needs), or add a cell of the rest that touches the set.  A
    feasible set with no more faces than the best becomes the best; one more
    than 4 faces above it returns to the best.

    A flip changes the face count, the neighbour counts and the pools only
    at the cell and its 2N face neighbours.  The grid is padded by one
    unoccupied cell on every side, so the neighbours of flat index x are
    x +- stride, and the padding keeps the pools in row-major order.  The
    flips since the last best form an undo log, replayed backwards to
    return to it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1505]))
    occ = gd.occupancy
    need = _cells_needed(gd, s)
    inner = (slice(1, -1),) * occ.ndim
    grid = np.zeros(tuple(n + 2 for n in occ.shape), dtype=np.uint8)
    body = grid[inner]  # 0 outside, 1 rest of the domain, 2 set
    body[occ] = 1
    body[mask] = 2
    flat = grid.ravel()
    strides = [st // grid.itemsize for st in grid.strides]
    steps = strides + [-st for st in strides]
    in_set, in_rest = flat == 2, flat == 1
    # face neighbours in the set and in the rest; np.roll wraps only into
    # the padding, which is in neither pool
    near_set = np.zeros(flat.size, dtype=np.uint8)
    near_rest = np.zeros(flat.size, dtype=np.uint8)
    for d in steps:
        near_set += np.roll(in_set, d)
        near_rest += np.roll(in_rest, d)
    drop = _MovePool(in_set & (near_rest > 0))
    add = _MovePool(in_rest & (near_set > 0))
    state, n_set, n_rest = bytearray(flat), bytearray(near_set), bytearray(near_rest)
    cells = int(in_set.sum())

    def flip(x: int) -> int:
        """Flip cell x between the set and the rest; return the face change."""
        nonlocal cells
        if state[x] == 2:
            state[x], d, dfaces = 1, -1, n_set[x] - n_rest[x]
        else:
            state[x], d, dfaces = 2, 1, n_rest[x] - n_set[x]
        cells += d
        drop.set(x, d > 0 and n_rest[x] > 0)
        add.set(x, d < 0 and n_set[x] > 0)
        for step in steps:
            y = x + step
            n_set[y] += d
            n_rest[y] -= d
            if state[y] == 2:
                drop.set(y, n_rest[y] > 0)
            elif state[y] == 1:
                add.set(y, n_set[y] > 0)
        return dfaces

    def undo(log: list) -> None:
        for x in reversed(log):
            flip(x)
        log.clear()

    best_faces = faces = _face_count(mask, occ)
    log = []
    for _ in range(budget):
        moves = []
        if cells > need and drop.size:
            moves.append(drop)
        if add.size:
            moves.append(add)
        if not moves:
            break
        pool = moves[rng.integers(len(moves))]
        x = pool.select(int(rng.integers(pool.size)))
        faces += flip(x)
        log.append(x)
        if faces <= best_faces and cells >= need:
            best_faces = faces
            log.clear()
        elif faces > best_faces + 4:
            undo(log)
            faces = best_faces
    undo(log)
    return np.frombuffer(state, dtype=np.uint8).reshape(grid.shape)[inner] == 2


def profile_search(gd: GridDomain, s: float, budget: int = 0,
                   seed: int = 0) -> ProfilePoint:
    """Estimate the relative isoperimetric profile at measure s from above.

    Candidates: axis-aligned strips, registered corner quarter-discs (with
    analytic perimeter), an interior ball when it fits, registered analytic
    witnesses, and, when the integer budget is positive, a local search of
    at most that many single-cell flips seeded from the best grid candidate.
    The reported value is the smallest perimeter over feasible candidates
    (grid measure, or analytic measure for registered witnesses, at least
    s).  If a grid candidate undercuts a registered analytic lower
    bound by more than 4h the search raises rather than reporting it.
    """
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 0:
        raise ValueError(f"flip budget must be an integer >= 0, got {budget!r}")
    dom = gd.domain
    lam = gd.grid_measure
    if not 0 < s < lam:
        raise ValueError(f"need 0 < s < grid measure {lam:g}")
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
        per = _perimeter(gd, _face_count(mask, gd.occupancy))
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
            per = _perimeter(gd, _face_count(refined, gd.occupancy))
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
