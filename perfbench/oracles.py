"""Reference computations that the benchmark checks sobtrace against.

Nothing here imports sobtrace.  Distances are plain Python on floats, the
closed forms come from the geometry of the cube, the punctured disc, the
rectangle, the rooms chain and the stacked squares, and Lorentz quasinorms
of step data are summed in 50-digit mpmath.  ``test_oracles.py`` pins each
function to hand-computed values.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# exact distances to boundary primitives


def segment_distance(x: float, y: float, a, b) -> float:
    """Distance from (x, y) to the closed segment [a, b]."""
    ax, ay = float(a[0]), float(a[1])
    dx, dy = float(b[0]) - ax, float(b[1]) - ay
    rx, ry = x - ax, y - ay
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return math.hypot(rx, ry)
    t = min(1.0, max(0.0, (rx * dx + ry * dy) / length2))
    return math.hypot(rx - t * dx, ry - t * dy)


def arc_distance(x: float, y: float, c, radius: float, a0: float, a1: float) -> float:
    """Distance from (x, y) to the arc of circle(c, radius) from angle a0 to a1."""
    cx, cy = float(c[0]), float(c[1])
    rx, ry = x - cx, y - cy
    theta = math.atan2(ry, rx)
    theta = a0 + (theta - a0) % (2.0 * math.pi)
    if theta <= a1:
        return abs(math.hypot(rx, ry) - radius)
    ends = (
        (cx + radius * math.cos(a0), cy + radius * math.sin(a0)),
        (cx + radius * math.cos(a1), cy + radius * math.sin(a1)),
    )
    return min(math.hypot(x - ex, y - ey) for ex, ey in ends)


def primitive_distance(x: float, y: float, primitives) -> float:
    """Distance from (x, y) to the nearest of ("segment", a, b) and
    ("arc", c, radius, a0, a1) primitives."""
    best = math.inf
    for prim in primitives:
        if prim[0] == "segment":
            d = segment_distance(x, y, prim[1], prim[2])
        elif prim[0] == "arc":
            d = arc_distance(x, y, *prim[1:5])
        else:
            raise ValueError(f"unknown primitive {prim[0]!r}")
        best = min(best, d)
    return best


# ---------------------------------------------------------------------------
# closed forms on the unit cube (0,1)^N and the punctured unit disc


def cube_distance(point) -> float:
    """d(x) = min_i min(x_i, 1 - x_i) on the unit cube."""
    return min(min(c, 1.0 - c) for c in point)


def cube_inv_d_mu(xi: float, n: int) -> float:
    """Measure of {1/d > xi} on (0,1)^n: the collar {d < 1/xi}."""
    if xi <= 2.0:
        return 1.0
    return 1.0 - (1.0 - 2.0 / xi) ** n


def cube_weak_norm(n: int) -> float:
    """lim xi * mu{1/d > xi} = 2n, the area of the cube's boundary."""
    return 2.0 * n


def punctured_disc_distance(point) -> float:
    """d(x) = min(|x|, 1 - |x|) on the unit disc minus its centre."""
    r = math.hypot(point[0], point[1])
    return min(r, 1.0 - r)


def punctured_disc_inv_d_mu(xi: float) -> float:
    """Measure of {1/d > xi} on the punctured disc, for xi >= 2.

    The outer collar {1 - |x| < s} has area pi (2s - s^2) and the inner disc
    {|x| < s} area pi s^2, so the sum is 2 pi s with s = 1/xi: the puncture
    cancels the curvature term exactly.
    """
    if xi < 2.0:
        raise ValueError("closed form holds for xi >= 2")
    return 2.0 * math.pi / xi


def punctured_disc_inv_d_weak_norm() -> float:
    """xi * mu{1/d > xi} = 2 pi for every xi >= 2."""
    return 2.0 * math.pi


def punctured_disc_hardy_mu(xi: float) -> float:
    """Measure of {(1 - |x|)/d > xi} on the punctured disc, for xi >= 1.

    The quotient is 1 on |x| >= 1/2 and 1/|x| - 1 inside, so the level set
    is the disc |x| < 1/(xi + 1).
    """
    if xi < 1.0:
        raise ValueError("closed form holds for xi >= 1")
    return math.pi / (xi + 1.0) ** 2


# ---------------------------------------------------------------------------
# isoperimetry and ball portions


def rectangle_profile_bracket(a: float, s: float, h: float) -> tuple[float, float]:
    """Bracket for a grid profile of (0,1) x (0,a) at measure s <= a/2.

    The profile lies between sqrt(2 a s) and min(sqrt(pi s), a), the
    corner quarter-disc or the full-height strip; grid witnesses may miss
    either end by 4h.
    """
    return (math.sqrt(2.0 * a * s) - 4.0 * h,
            min(math.sqrt(math.pi * s), a) + 4.0 * h)


def squares_gap_ratio(k: int) -> float:
    """Outer ball portion at the k-th gap of the stacked squares: 1/(pi (2^k - 1))."""
    return 1.0 / (math.pi * (2.0**k - 1.0))


def circle_outside_fraction(radius: float, rho: float) -> float:
    """Share of the ball B(x, rho) outside the disc of the given radius,
    for x on that disc's circle (two-circle lens area)."""
    R, d = radius, radius
    if rho >= 2.0 * R:
        return 1.0 - (R * R) / (rho * rho)
    lens = (
        rho * rho * math.acos((d * d + rho * rho - R * R) / (2.0 * d * rho))
        + R * R * math.acos((d * d + R * R - rho * rho) / (2.0 * d * R))
        - 0.5 * math.sqrt((-d + rho + R) * (d + rho - R) * (d - rho + R) * (d + rho + R))
    )
    return 1.0 - lens / (math.pi * rho * rho)


# ---------------------------------------------------------------------------
# Lorentz quasinorms of step data


def weak_norm_numpy(values, measures, p: float = 1.0) -> float:
    """sup_t t^{1/p} f*(t) by sorting, a cumulative sum and a maximum.

    Within a run of tied values the product grows with t, so taking the
    maximum over every sample's right endpoint needs no tie merging.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    t = np.cumsum(np.asarray(measures, dtype=float)[order])
    return float(np.max(t ** (1.0 / p) * values[order]))


def lorentz_mp(values, measures, p: float, q: float, dps: int = 50):
    """||f||_{p,q} of step data in mpmath: the integral of
    (t^{1/p} f*(t))^q dt/t summed exactly step by step, or for q = inf the
    supremum of t^{1/p} f*(t) over right endpoints."""
    import mpmath

    with mpmath.workdps(dps):
        pairs = sorted(zip((float(v) for v in values), (float(m) for m in measures)),
                       key=lambda vm: -vm[0])
        P = mpmath.mpf(p)
        t = mpmath.mpf(0)
        if math.isinf(q):
            best = mpmath.mpf(0)
            for v, m in pairs:
                t += mpmath.mpf(m)
                best = max(best, t ** (1 / P) * mpmath.mpf(v))
            return +best
        Q = mpmath.mpf(q)
        total = mpmath.mpf(0)
        for v, m in pairs:
            t_next = t + mpmath.mpf(m)
            if v > 0:
                total += mpmath.mpf(v) ** Q * (P / Q) * (t_next ** (Q / P) - t ** (Q / P))
            t = t_next
        return total ** (1 / Q)


def embedding_constant(p: float, q: float, r: float) -> float:
    """(p/q)^{1/q - 1/r} in ||f||_{p,r} <= C ||f||_{p,q}, for q <= p and q <= r."""
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    return 1.0 if math.isinf(q) else (p / q) ** (inv_q - inv_r)
