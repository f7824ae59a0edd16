"""Distribution functions and non-increasing rearrangements of sampled functions.

A nonnegative measurable function is represented by a finite list of
(value, measure) pairs: the function takes ``value`` on a set of the given
measure.  All rearrangement arithmetic on such data is exact (sorting and
cumulative sums), which is what the quasinorm layer relies on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampledFunction",
    "StepRearrangement",
    "distribution",
    "rearrange",
]

_REL_TOL = 1e-12


def _csv_columns(text: str, header: str) -> tuple[list[float], list[float]]:
    """The two float columns of CSV text whose first non-blank line is header."""
    rows = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]
    if not rows or rows[0][1] != header:
        raise ValueError(f"expected header {header!r}")
    first, second = [], []
    for n, ln in rows[1:]:
        try:
            a, b = (float(x) for x in ln.split(","))
        except ValueError:
            raise ValueError(f"line {n}: expected {header!r}, got {ln!r}") from None
        first.append(a)
        second.append(b)
    return first, second


@dataclass(frozen=True)
class SampledFunction:
    """A nonnegative function given by measure-weighted value samples.

    Parameters
    ----------
    values : array/sequence of nonnegative finite reals
    measures : array/sequence of positive finite reals, same length
    label : optional display name
    total_measure : optional; validated against sum(measures) within 1e-12
        relative tolerance, computed when omitted
    value_cap : optional trust ceiling for distribution probes.  Rasterized
        boundary-layer fields set this to mark where the value range stops
        being resolution-reliable; exact step data leaves it None.
    """

    values: np.ndarray
    measures: np.ndarray
    label: str = ""
    total_measure: float | None = None
    value_cap: float | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        m = np.asarray(self.measures, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("need at least one sample")
        if v.shape != m.shape:
            raise ValueError("values and measures must have the same length")
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(m)):
            raise ValueError("samples must be finite")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        if np.any(m <= 0):
            raise ValueError("measures must be positive")
        total = float(m.sum())
        if self.total_measure is not None:
            declared = float(self.total_measure)
            if not np.isclose(declared, total, rtol=_REL_TOL, atol=0.0):
                raise ValueError(
                    f"declared total_measure {declared!r} != sum of measures {total!r}"
                )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)
        object.__setattr__(self, "total_measure", total)

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.measures.tolist()))

    @classmethod
    def from_pairs(cls, pairs, label: str = "") -> "SampledFunction":
        pairs = list(pairs)
        return cls(
            values=np.array([p[0] for p in pairs], dtype=float),
            measures=np.array([p[1] for p in pairs], dtype=float),
            label=label,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("value,measure\n")
        for v, m in zip(self.values, self.measures):
            buf.write(f"{v:.17g},{m:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, label: str = "") -> "SampledFunction":
        values, measures = _csv_columns(text, "value,measure")
        return cls(values=np.array(values), measures=np.array(measures), label=label)


@dataclass(frozen=True)
class StepRearrangement:
    """The non-increasing rearrangement f* of a SampledFunction.

    ``breakpoints`` starts at 0 and is strictly increasing; ``levels`` has one
    entry per step and is strictly decreasing after tie merging.  f* takes
    ``levels[i]`` on [breakpoints[i], breakpoints[i+1]).
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.breakpoints, dtype=float).ravel()
        lv = np.asarray(self.levels, dtype=float).ravel()
        if b.size < 2 or lv.size != b.size - 1:
            raise ValueError("need len(breakpoints) == len(levels) + 1 >= 2")
        if b[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.diff(lv) >= 0):
            raise ValueError("levels must be strictly decreasing")
        if np.any(lv < 0):
            raise ValueError("levels must be nonnegative")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "levels", lv)

    @property
    def total_measure(self) -> float:
        return float(self.breakpoints[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t >= self.total_measure):
            raise ValueError("t outside [0, total_measure)")
        idx = np.searchsorted(self.breakpoints[1:], t, side="right")
        out = self.levels[idx]
        return float(out) if out.ndim == 0 else out

    def level_measure(self, xi: float) -> float:
        """Measure of {f* > xi}; equals the distribution of the source data."""
        if xi < 0:
            raise ValueError("xi must be nonnegative")
        # levels strictly decreasing: find rightmost step with level > xi
        n = int(np.searchsorted(-self.levels, -xi, side="left"))
        return float(self.breakpoints[n])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t_break,level\n")
        for i, lv in enumerate(self.levels):
            buf.write(f"{self.breakpoints[i + 1]:.17g},{lv:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "StepRearrangement":
        breaks, levels = _csv_columns(text, "t_break,level")
        return cls(breakpoints=np.array([0.0] + breaks), levels=np.array(levels))


def distribution(f: SampledFunction, xi: float) -> float:
    """Distribution function mu_f(xi) = measure of {|f| > xi}.

    Exact for sampled data: sums the measures of samples with value
    strictly above xi.  mu_f(0) = total_measure when all values are
    positive.
    """
    xi = float(xi)
    if not np.isfinite(xi) or xi < 0:
        raise ValueError("xi must be a finite nonnegative real")
    return float(f.measures[f.values > xi].sum())


def rearrange(f: SampledFunction) -> StepRearrangement:
    """Exact non-increasing rearrangement of a SampledFunction.

    Sorts samples by descending value (stable), merges ties, and emits the
    step function on [0, total_measure).  Samples with value 0 form the
    trailing step.
    """
    order = np.argsort(-f.values, kind="stable")
    vals = f.values[order]
    meas = f.measures[order]
    # merge runs of equal value so levels end up strictly decreasing
    starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) != 0)))
    levels = vals[starts]
    sums = np.add.reduceat(meas, starts)
    breaks = np.concatenate(([0.0], np.cumsum(sums)))
    return StepRearrangement(breakpoints=breaks, levels=levels)

