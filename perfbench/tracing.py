"""Spans around calls into sobtrace, recorded from outside the package.

A traced run replaces the module attributes that sobtrace calls through
(``sobtrace.domains.rasterize``, ``sobtrace.traces.sobolev_norm``, ...)
with wrappers that record a span per call, and gives every Domain it builds
wrapped ``inside`` and ``distance_fn`` callables.  Nothing under ``src/``
changes, and untraced runs never import this module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import statistics
from time import perf_counter

# span record: [name, start, end, parent index or -1, op id, counts or None]


class Tracer:
    """Keeps spans in memory; spans are recorded only while ``op`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """fn with a span named ``name`` around each call; ``counts(args,
        kwargs, result)`` returns a dict of counts stored with the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        wrapper.perfbench_traced = True
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if self.op is None:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries


def _raster_counts(args, kwargs, gd):
    return {"cells": int(gd.occupancy.size), "occupied": int(gd.occupancy.sum())}


def _prim_evals(args, kwargs, result):
    primitives, pts = args[0], args[1]
    shape = getattr(pts, "shape", (len(pts),))
    points = 1 if len(shape) == 1 else math.prod(shape[:-1])
    return {"prim_evals": points * len(primitives)}


def _mc_points(args, kwargs, report):
    return {"mc_points": int(sum(row[4] for row in report.probes))}


def _rearrange_counts(args, kwargs, r):
    f = args[0] if args else kwargs["f"]
    return {"samples": int(f.values.size), "steps": int(r.levels.size)}


def _ac_probes(args, kwargs, report):
    return {"probes": len(report.trend_samples)}


def _convolutions(args, kwargs, result):
    """Radii the maximal operator convolves, from its arguments."""
    u = args[0]
    R = args[1] if len(args) > 1 else kwargs["R"]
    radii = args[2] if len(args) > 2 else kwargs.get("radii", "all")
    gd = u.parent
    rmax = float(R) if not hasattr(R, "shape") else float(R[gd.occupancy].max())
    jmax = int(math.floor(rmax / gd.h + 1e-12))
    if radii == "dyadic":
        return {"convolutions": jmax.bit_length()}
    return {"convolutions": max(jmax, 0)}


def _profile_args(args, kwargs, point):
    gd = args[0]
    budget = args[2] if len(args) > 2 else kwargs.get("budget", 0)
    return {"h": float(gd.h), "budget": int(budget)}


_DOMAIN_BUILDERS = ("unit_cube", "punctured_ball", "rectangle", "rooms_and_passages",
                    "squares_stack", "crocodile", "skyscrapers", "gallery")


def install(tracer: Tracer, sob) -> None:
    """Wrap sobtrace's module attributes; ``sob`` is the imported package."""
    domains, lorentz, traces = sob.domains, sob.lorentz, sob.traces
    patches = [
        (domains, "rasterize", "domains.rasterize", _raster_counts),
        (domains, "boundary_distance", "domains.boundary_distance", _prim_evals),
        (domains, "ball_portion_scan", "domains.ball_portion_scan", _mc_points),
        (sob.isoperimetry, "profile_search", "isoperimetry.profile_search", _profile_args),
        (lorentz, "lorentz_quasinorm", "lorentz.lorentz_quasinorm", None),
        (lorentz, "lorentz_quasinorm_distribution",
         "lorentz.lorentz_quasinorm_distribution", None),
        (lorentz, "weak_norm_tail", "lorentz.weak_norm_tail", None),
        (traces, "ratio_field", "traces.ratio_field", None),
        (traces, "weak_norm_estimate", "traces.weak_norm_estimate", None),
        (traces, "approximation_scheme", "traces.approximation_scheme", None),
        (traces, "sobolev_norm", "traces.sobolev_norm", None),
        (traces, "maximal_operator", "traces.maximal_operator", _convolutions),
    ]
    for module in (sob.rearrangement, lorentz, traces):
        patches.append((module, "rearrange", "rearrangement.rearrange", _rearrange_counts))
    for module in (lorentz, traces):
        patches.append((module, "ac_diagnostic", "lorentz.ac_diagnostic", _ac_probes))
    for module, attr, name, counts in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))

    def instrumented(dom):
        if getattr(dom.inside, "perfbench_traced", False):
            return dom
        dist = dom.distance_fn
        return dataclasses.replace(
            dom,
            inside=tracer.wrap("domains.inside", dom.inside),
            distance_fn=None if dist is None else tracer.wrap("domains.distance", dist),
        )

    def builder(fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return instrumented(fn(*args, **kwargs))
        return build

    for attr in _DOMAIN_BUILDERS:
        setattr(domains, attr, builder(getattr(domains, attr)))


# ---------------------------------------------------------------------------
# per-layer metrics


BUSY = {
    "domains.rasterize.busy_s": "domains.rasterize",
    "domains.distance.busy_s": "domains.distance",
    "domains.inside.busy_s": "domains.inside",
    "domains.ball_portion_scan.busy_s": "domains.ball_portion_scan",
    "rearrangement.rearrange.busy_s": "rearrangement.rearrange",
    "lorentz.lorentz_quasinorm.busy_s": "lorentz.lorentz_quasinorm",
    "lorentz.lorentz_quasinorm_distribution.busy_s": "lorentz.lorentz_quasinorm_distribution",
    "lorentz.weak_norm_tail.busy_s": "lorentz.weak_norm_tail",
    "lorentz.ac_diagnostic.busy_s": "lorentz.ac_diagnostic",
    "traces.ratio_field.busy_s": "traces.ratio_field",
    "traces.weak_norm_estimate.busy_s": "traces.weak_norm_estimate",
    "traces.sobolev_norm.busy_s": "traces.sobolev_norm",
    "traces.maximal_operator.busy_s": "traces.maximal_operator",
    "isoperimetry.profile_search.busy_s": "isoperimetry.profile_search",
    "cli.verify.busy_s": "cli.verify",
    "cli.subcommand.busy_s": "cli.subcommand",
}
SELF = {"traces.approximation_scheme.self_s": "traces.approximation_scheme"}
COUNTS = {
    "domains.distance.prim_evals": ("domains.boundary_distance", "prim_evals"),
    "domains.rasterize.cells": ("domains.rasterize", "cells"),
    "domains.ball_portion_scan.mc_points": ("domains.ball_portion_scan", "mc_points"),
    "rearrangement.rearrange.samples": ("rearrangement.rearrange", "samples"),
    "rearrangement.rearrange.steps": ("rearrangement.rearrange", "steps"),
    "lorentz.ac_diagnostic.probes": ("lorentz.ac_diagnostic", "probes"),
    "traces.maximal_operator.convolutions": ("traces.maximal_operator", "convolutions"),
}
FLIP_GRIDS = {"isoperimetry.flip_s.h7": 2.0**-7, "isoperimetry.flip_s.h8": 2.0**-8}


def layer_metrics(spans, rounds: int) -> dict:
    """Per-round busy time, self time and counts of each layer.

    Spans are recorded only inside timed ops, and each sum is divided by
    the number of rounds, so runs of different length compare.  Self time
    is a span's duration minus that of its children.  A layer that the
    workload never calls reads 0.
    """
    dur: dict[str, float] = {}
    child: dict[str, float] = {}
    counts: dict[tuple, int] = {}
    for s in spans:
        name, d = s[0], s[2] - s[1]
        dur[name] = dur.get(name, 0.0) + d
        if s[3] >= 0:
            parent = spans[s[3]][0]
            child[parent] = child.get(parent, 0.0) + d
        for key, value in (s[5] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    out = {metric: dur.get(name, 0.0) / rounds for metric, name in BUSY.items()}
    for metric, name in SELF.items():
        out[metric] = (dur.get(name, 0.0) - child.get(name, 0.0)) / rounds
    for metric, (name, key) in COUNTS.items():
        out[metric] = counts.get((name, key), 0) / rounds
    cells = counts.get(("domains.rasterize", "cells"), 0)
    out["domains.rasterize.occupied_frac"] = (
        counts.get(("domains.rasterize", "occupied"), 0) / cells if cells else 0.0)
    for metric, h in FLIP_GRIDS.items():
        out[metric] = flip_cost(spans, h)
    return out


def flip_cost(spans, h: float) -> float:
    """Seconds per flip of the profile search at spacing h: the mean time
    with a flip budget B minus the mean time with budget 0, over B.

    Only calls made directly by an op count, so both means cover the same
    measures; the CLI's own profile searches sit under a cli span.
    """
    by_budget: dict[int, list[float]] = {}
    for s in spans:
        if s[0] == "isoperimetry.profile_search" and s[3] < 0 and s[5]["h"] == h:
            by_budget.setdefault(s[5]["budget"], []).append(s[2] - s[1])
    flips = [b for b in by_budget if b > 0]
    if 0 not in by_budget or not flips:
        return 0.0
    budget = max(flips)
    return (statistics.fmean(by_budget[budget]) - statistics.fmean(by_budget[0])) / budget
