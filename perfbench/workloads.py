"""The benchmark's three workloads: inputs, ops and checks.

Every workload is built from the workload seed alone; sobtrace receives
only the generated inputs.  A round is a fixed list of ops, shuffled per
round by the seed.  Each op returns its outputs, and its check, run outside
the timer, raises ``OpFailed`` when the op produced no usable value (NaN or
inf where the true value is finite) or ``WrongOutput`` when a value
contradicts an oracle from ``oracles.py`` or a property the method must
have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

INF = math.inf


class OpFailed(Exception):
    """The op returned no usable value."""


class WrongOutput(Exception):
    """The op returned a value that its oracle or property contradicts."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


@dataclass
class Op:
    kind: str
    fn: Callable[[], object]
    check: Callable[[object, int], None]
    fault: str | None = None  # a fault named in the README that fails this op today


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Op]
    seed: int
    notes: dict = field(default_factory=dict)

    def order(self, round_index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0x0D, round_index])
        return [self.ops[i] for i in rng.permutation(len(self.ops))]


def _no_check(out, round_index):
    return None


# ---------------------------------------------------------------------------
# primitive-raster: `sobtrace norm --gallery <tag>` on the primitive domains

PRIMITIVE_TAGS = ("rooms_and_passages", "squares_stack", "crocodile", "skyscrapers")
RASTER_SPACINGS = (8, 9)  # h = 2^-8 and 2^-9
ORACLE_CELLS = 256


def _norm_pipeline(sob, dom, h):
    gd = sob.domains.rasterize(dom, h)
    u = sob.traces.constant_function(gd, 1.0)
    f = sob.traces.ratio_field(u)
    r = sob.rearrangement.rearrange(f)
    rearranged = sob.lorentz.lorentz_quasinorm(f, (1.0, INF))
    distribution = sob.lorentz.lorentz_quasinorm_distribution(f, (1.0, INF))
    wne = sob.traces.weak_norm_estimate(u, p=1.0)
    ac = sob.lorentz.ac_diagnostic(f, p=1.0)
    return {"gd": gd, "r": r, "forms": (rearranged, distribution), "wne": wne, "ac": ac}


def _check_raster(dom, sample_seed, sob):
    def check(out, round_index):
        gd = out["gd"]
        occ = gd.occupancy
        d = gd.distance_field
        expect(bool(np.all(d[occ] > 0.0)), "an occupied cell has d <= 0")
        cells = np.flatnonzero(occ)
        rng = np.random.default_rng([sample_seed, round_index])
        worst = 0.0
        for flat in rng.choice(cells, size=min(ORACLE_CELLS, cells.size), replace=False):
            i, j = np.unravel_index(flat, occ.shape)
            x = float(gd.origin[0]) + (float(i) + 0.5) * gd.h
            y = float(gd.origin[1]) + (float(j) + 0.5) * gd.h
            exact = oracles.primitive_distance(x, y, dom.boundary)
            worst = max(worst, abs(float(d[i, j]) - exact))
        expect(worst <= 1e-12, f"distance field off the primitive oracle by {worst:.3g}")
        rearranged, distribution = out["forms"]
        ratios = 1.0 / d[occ]
        reference = oracles.weak_norm_numpy(ratios, np.full(ratios.shape, gd.cell_measure))
        expect(rel_err(rearranged, reference) <= 1e-12,
               f"(1,inf) quasinorm {rearranged!r} vs numpy {reference!r}")
        expect(rel_err(distribution, rearranged) <= 1e-10,
               f"forms disagree: {rearranged!r} vs {distribution!r}")
        # a boundary layer of positive length keeps xi mu(xi) away from 0
        expect(out["ac"].verdict == sob.lorentz.AC_VIOLATED_AT_INFINITY,
               f"ac verdict {out['ac'].verdict} for 1/d")
        est = out["wne"].estimate
        expect(0.0 < est <= rearranged * (1.0 + 1e-12),
               f"weak-norm estimate {est!r} outside (0, ||1/d||_(1,inf)]")
    return check


def primitive_raster(sob, seed: int, span) -> Workload:
    ops = []
    for n, tag in enumerate(PRIMITIVE_TAGS):
        dom = sob.domains.gallery(tag, kmax=12)
        for k in RASTER_SPACINGS:
            h = 2.0**-k
            ops.append(Op(
                kind=f"{tag}@2^-{k}",
                fn=lambda dom=dom, h=h: _norm_pipeline(sob, dom, h),
                check=_check_raster(dom, [seed, n, k], sob),
                fault="F1" if tag == "crocodile" else None,
            ))
    warm = sob.domains.gallery("squares_stack", kmax=12)
    warmups = [Op("warmup@2^-6", lambda: _norm_pipeline(sob, warm, 2.0**-6), _no_check)]
    return Workload(ops, warmups, seed)


# ---------------------------------------------------------------------------
# trace-diagnostics: grids with closed-form distance, scans and the CLI

RECT_A = 0.5
FLIP_BUDGET = 400


def _run_cli(sob, span, name, argv):
    buf = io.StringIO()
    with span(name), contextlib.redirect_stdout(buf):
        status = sob.cli.main(argv)
    return status, buf.getvalue()


def _squares_sequence(rows):
    expect(len(rows) == 5, f"violating sequence has {len(rows)} probes, not 5")
    for radius, ratio, stderr in rows:
        k = round(-math.log2(radius))
        expected = oracles.squares_gap_ratio(k)
        expect(abs(ratio - expected) <= 3.0 * stderr,
               f"gap {k}: ratio {ratio:.5g} vs 1/(pi(2^k-1)) = {expected:.5g}")


def trace_diagnostics(sob, seed: int, span) -> Workload:
    dm, tr, iso = sob.domains, sob.traces, sob.isoperimetry
    rng = np.random.default_rng([seed, 0x7D])
    c2 = dm.rasterize(dm.gallery("cube2"), 2.0**-8)
    c3 = dm.rasterize(dm.gallery("cube3"), 2.0**-5)
    pb = dm.rasterize(dm.gallery("punctured_ball2"), 2.0**-9)
    rects = {k: dm.rasterize(dm.rectangle(RECT_A), 2.0**-k) for k in (7, 8)}
    one_c2 = tr.constant_function(c2, 1.0)
    d_c2 = tr.distance_function(c2)
    phi_c2 = tr.GridFunction(c2, 1.9 * c2.distance_field, "1.9d")
    one_c3 = tr.constant_function(c3, 1.0)
    one_pb = tr.constant_function(pb, 1.0)
    hardy_pb = tr.sample_function(pb, lambda x: 1.0 - np.linalg.norm(x, axis=-1), "1-|x|")
    squares = dm.gallery("squares_stack", kmax=8)
    rooms = dm.gallery("rooms_and_passages", kmax=12)
    # one measure where the corner quarter-disc wins, one where the strip does
    s_values = (float(rng.uniform(0.03, 0.07)), float(rng.uniform(0.10, 0.24)))
    s_cli = float(rng.uniform(0.03, 0.24))
    search_seed = int(rng.integers(2**31))

    def check_scheme(verdict, last_kmu=None):
        def check(rep, round_index):
            expect(rep.verdict == verdict, f"verdict {rep.verdict}, expected {verdict}")
            if last_kmu is not None:
                k, _, _, kmu, _ = [row for row in rep.rows if not row[4]][-1]
                want = last_kmu(k)
                expect(rel_err(kmu, want) <= 0.05, f"k mu at k={k:g}: {kmu:.6g} vs {want:.6g}")
        return check

    def check_weak_norm(exact):
        def check(est, round_index):
            expect(rel_err(est.estimate, exact) <= 0.02,
                   f"weak norm {est.estimate:.6g} vs {exact:.6g}")
        return check

    def level_measures(u, levels):
        r = sob.rearrangement.rearrange(tr.ratio_field(u))
        return [r.level_measure(xi) for xi in levels]

    cube_levels = (4.0, 8.0, 16.0, 32.0)
    hardy_levels = (1.0, 2.0, 4.0, 8.0)

    def check_cube_distribution(mus, round_index):
        for xi, mu in zip(cube_levels, mus):
            want = xi * oracles.cube_inv_d_mu(xi, 2)
            expect(rel_err(xi * mu, want) <= 0.01, f"xi mu({xi:g}) = {xi * mu:.6g} vs {want:.6g}")

    def check_hardy_distribution(mus, round_index):
        for xi, mu in zip(hardy_levels, mus):
            want = oracles.punctured_disc_hardy_mu(xi)
            expect(rel_err(mu, want) <= 0.01, f"mu({xi:g}) = {mu:.6g} vs {want:.6g}")

    def check_maximal(m, round_index):
        far = c2.occupancy & (c2.distance_field > 9.0 * c2.h)
        gap = float(np.max(np.abs(m.values[far] - 1.0)))
        expect(gap <= 1e-12, f"M1 differs from 1 by {gap:.3g} where d > 9h")

    def check_hardy_pointwise(res, round_index):
        n = c2.occupancy.shape[0]
        expect(res["cells"] == (n - 4) ** 2, f"{res['cells']} trusted cells, not {(n - 4) ** 2}")
        # for u = d every grid partial lies in [-1, 1], and one of them is at
        # least 1/2 in size, so 1/sqrt 2 <= |grad u| and M <= sqrt 2
        c = res["constant_estimate"]
        expect(2.0**-0.5 <= c <= 2.0**0.5, f"constant {c:.6g} outside [1/sqrt2, sqrt2]")

    budget0 = {}

    def check_profile(k, s, budget):
        h = 2.0**-k

        def check(point, round_index):
            lo, hi = oracles.rectangle_profile_bracket(RECT_A, s, h)
            per = point.witness_perimeter
            expect(lo <= per <= hi, f"perimeter {per:.6g} outside [{lo:.6g}, {hi:.6g}]")
            if budget:
                if (k, s) not in budget0:
                    budget0[(k, s)] = iso.profile_search(rects[k], s, budget=0).witness_perimeter
                expect(per <= budget0[(k, s)],
                       f"budget {budget} gave {per:.6g} > budget 0 {budget0[(k, s)]:.6g}")
        return check

    def check_squares_scan(rep, round_index):
        expect(rep.verdict == dm.VIOLATED_SEQUENCE_FOUND, f"verdict {rep.verdict}")
        _squares_sequence([(row[1], row[2], row[3]) for row in rep.violating_sequence])

    desc = rooms.descriptor
    room_tops = {(c, r): r for c, r in zip(desc["centers"], desc["radii"])}

    def check_rooms_scan(rep, round_index):
        expect(rep.verdict == dm.PLAUSIBLY_SATISFIED, f"verdict {rep.verdict}")
        for point, radius, ratio, stderr, n in rep.probes:
            room = room_tops.get(point)
            # probes sit on the top of a room or on a straight passage wall
            want = 0.5 if room is None else oracles.circle_outside_fraction(room, radius)
            expect(abs(ratio - want) <= 3.0 * stderr,
                   f"probe {point} r={radius:.3g}: {ratio:.5g} vs {want:.5g}")

    def check_verify(out, round_index):
        status, text = out
        rows = json.loads(text)
        passed = sum(1 for row in rows if row["ok"])
        expect(status == 0 and passed == 13 and len(rows) == 13,
               f"verify exit {status}, {passed} of {len(rows)} checks passed")

    def check_cli_scan(out, round_index):
        status, text = out
        rep = json.loads(text)
        expect(status == 0 and rep["verdict"] == dm.VIOLATED_SEQUENCE_FOUND,
               f"scan exit {status}, verdict {rep['verdict']}")
        _squares_sequence([(r["radius"], r["ratio"], r["stderr"])
                           for r in rep["violating_sequence"]])

    def check_cli_profile(out, round_index):
        status, text = out
        per = json.loads(text)["witness_perimeter"]
        lo, hi = oracles.rectangle_profile_bracket(RECT_A, s_cli, 2.0**-7)
        expect(status == 0 and lo <= per <= hi,
               f"profile exit {status}, perimeter {per:.6g} outside [{lo:.6g}, {hi:.6g}]")

    ops = [
        Op("scheme.cube2.u=1.p1", lambda: tr.approximation_scheme(one_c2, 1.0),
           check_scheme(tr.INCONSISTENT_WITH_ZERO_TRACE, lambda k: oracles.cube_weak_norm(2))),
        Op("scheme.cube2.u=d.p2", lambda: tr.approximation_scheme(d_c2, 2.0),
           check_scheme(tr.CONSISTENT_WITH_ZERO_TRACE)),
        Op("scheme.cube2.u=1.9d.p2", lambda: tr.approximation_scheme(phi_c2, 2.0),
           check_scheme(tr.CONSISTENT_WITH_ZERO_TRACE)),
        Op("scheme.cube3.u=1.p1", lambda: tr.approximation_scheme(one_c3, 1.0),
           check_scheme(tr.INCONSISTENT_WITH_ZERO_TRACE,
                        lambda k: k * oracles.cube_inv_d_mu(k, 3))),
        Op("weak_norm.cube2", lambda: tr.weak_norm_estimate(one_c2),
           check_weak_norm(oracles.cube_weak_norm(2))),
        Op("weak_norm.cube3", lambda: tr.weak_norm_estimate(one_c3),
           check_weak_norm(oracles.cube_weak_norm(3))),
        Op("weak_norm.punctured_ball2", lambda: tr.weak_norm_estimate(one_pb),
           check_weak_norm(oracles.punctured_disc_inv_d_weak_norm())),
        Op("distribution.cube2.1/d", lambda: level_measures(one_c2, cube_levels),
           check_cube_distribution),
        Op("distribution.punctured_ball2.hardy", lambda: level_measures(hardy_pb, hardy_levels),
           check_hardy_distribution),
        Op("maximal.cube2.R=8h", lambda: tr.maximal_operator(one_c2, 8.0 * c2.h), check_maximal),
        Op("hardy_pointwise.cube2.u=d", lambda: tr.hardy_pointwise_check(d_c2),
           check_hardy_pointwise),
        Op("scan.squares_stack8",
           lambda: dm.ball_portion_scan(squares, mc_samples=20000, seed=0), check_squares_scan),
        Op("scan.rooms_and_passages",
           lambda: dm.ball_portion_scan(rooms, mc_samples=5000, seed=0), check_rooms_scan),
        Op("cli.verify", lambda: _run_cli(sob, span, "cli.verify", ["verify", "--json"]),
           check_verify),
        Op("cli.scan", lambda: _run_cli(sob, span, "cli.subcommand", [
            "scan", "--gallery", "squares_stack", "--kmax", "8", "--json"]), check_cli_scan),
        Op("cli.profile", lambda: _run_cli(sob, span, "cli.subcommand", [
            "profile", "--gallery", "rectangle", "--a", repr(RECT_A), "--s", repr(s_cli),
            "--h", repr(2.0**-7), "--json"]), check_cli_profile),
    ]
    for k in (7, 8):
        for n, s in enumerate(s_values):
            for budget in (0, FLIP_BUDGET):
                ops.append(Op(
                    f"profile.h{k}.s{n}.B{budget}",
                    lambda k=k, s=s, budget=budget: iso.profile_search(
                        rects[k], s, budget=budget, seed=search_seed),
                    check_profile(k, s, budget),
                ))
    notes = {"profile_s": list(s_values), "cli_profile_s": s_cli, "search_seed": search_seed}
    return Workload(ops, list(ops), seed, notes)


# ---------------------------------------------------------------------------
# lorentz-sweep: quasinorms of seeded step functions, no grid

SWEEP_FUNCTIONS = 128
SWEEP_MAX_EXP = 5.0          # sizes from 1 to 10^5 samples
SWEEP_P = (1.0, 1.5, 2.0, 7.0)
MP_CHECKED = 8               # functions per run checked against mpmath
MP_MAX_SIZE = 2000
MEASURE_GRID = 2.0**-20      # dyadic measures: tie groups sum exactly in any order


def _indices():
    return [(p, q) for p in SWEEP_P for q in (1.0, 2.0, p, INF)]


def _sweep_op(sob, f):
    lz = sob.lorentz
    r = sob.rearrangement.rearrange(f)
    forms = tuple((lz.lorentz_quasinorm(f, idx), lz.lorentz_quasinorm_distribution(f, idx))
                  for idx in _indices())
    tail = lz.weak_norm_tail(f)
    ac = lz.ac_diagnostic(f, p=1.0)
    return {"r": r, "forms": forms, "tail": tail, "ac": ac.verdict}


def _overflow_op(sob, f, idx):
    sob.rearrangement.rearrange(f)
    return (sob.lorentz.lorentz_quasinorm(f, idx),
            sob.lorentz.lorentz_quasinorm_distribution(f, idx))


def lorentz_sweep(sob, seed: int, span) -> Workload:
    rng = np.random.default_rng([seed, 0x15])
    # stratified log-uniform sizes: one draw per stratum keeps the total work
    # of a round nearly the same for every seed
    exps = (np.arange(SWEEP_FUNCTIONS) + rng.random(SWEEP_FUNCTIONS)) * (
        SWEEP_MAX_EXP / SWEEP_FUNCTIONS)
    sizes = np.floor(10.0**exps).astype(int)
    # every other stratum takes values rounded to one decimal, so ties occur
    rounded = np.arange(SWEEP_FUNCTIONS) % 2 == 1
    small = [i for i in range(SWEEP_FUNCTIONS) if sizes[i] <= MP_MAX_SIZE]
    mp_checked = set(rng.choice(small, size=min(MP_CHECKED, len(small)), replace=False).tolist())

    ops = []
    for i, (n, tie) in enumerate(zip(sizes.tolist(), rounded.tolist())):
        values = rng.lognormal(0.0, 1.5, n)
        if tie:
            values = np.round(values, 1)
        measures = rng.integers(1, 2**20, n) * MEASURE_GRID
        f = sob.rearrangement.SampledFunction(values, measures)
        perm = rng.permutation(n)
        ops.append(Op(f"sweep.{i:03d}.n{n}", lambda f=f: _sweep_op(sob, f),
                      _check_sweep(sob, f, perm, i in mp_checked)))

    sierpinski = sob.lorentz.sierpinski_counterexample(1.0)
    two_step = sob.rearrangement.SampledFunction([3.0, 1.0], [1e3, 1e3])
    for name, f, idx in (("sierpinski.q2", sierpinski, (1.0, 2.0)),
                         ("sierpinski.q3", sierpinski, (1.0, 3.0)),
                         ("two_step.q400", two_step, (1.0, 400.0))):
        ops.append(Op(f"overflow.{name}", lambda f=f, idx=idx: _overflow_op(sob, f, idx),
                      _check_overflow(f, idx), fault="F2"))
    warmups = [ops[SWEEP_FUNCTIONS // 2], ops[-1]]
    notes = {"sizes": sizes.tolist(), "rounded": rounded.tolist(),
             "mpmath_checked": sorted(mp_checked)}
    return Workload(ops, warmups, seed, notes)


def _check_sweep(sob, f, perm, with_mpmath):
    first = {}

    def check(out, round_index):
        summary = (out["forms"], out["tail"], out["ac"])
        if first:
            # the same input must give bit-identical outputs in every round
            expect(summary == first["summary"], "output differs from the first round")
            return
        for (p, q), (n1, n2) in zip(_indices(), out["forms"]):
            if not (math.isfinite(n1) and math.isfinite(n2)):
                raise OpFailed(f"non-finite norm at (p, q) = ({p:g}, {q:g}): {n1}, {n2}")
            expect(abs(n1 - n2) <= 1e-10 * n1, f"forms disagree at ({p:g}, {q:g}): {n1!r} {n2!r}")
        norms = dict(zip(_indices(), (n1 for n1, _ in out["forms"])))
        for p in SWEEP_P:
            for q in (1.0, 2.0, p):
                for r in (1.0, 2.0, p, INF):
                    if q <= p and q < r:
                        bound = oracles.embedding_constant(p, q, r) * norms[(p, q)]
                        expect(norms[(p, r)] <= bound * (1.0 + 1e-9),
                               f"||f||_({p:g},{r:g}) above C ||f||_({p:g},{q:g})")
        weak = oracles.weak_norm_numpy(f.values, f.measures)
        expect(abs(out["tail"] - weak) <= 1e-12 * weak, f"weak tail {out['tail']!r} vs {weak!r}")
        # bounded data on a set of finite measure: xi mu(xi) vanishes at both ends
        expect(out["ac"] == sob.lorentz.AC_CONSISTENT, f"ac verdict {out['ac']}")
        permuted = sob.rearrangement.rearrange(
            sob.rearrangement.SampledFunction(f.values[perm], f.measures[perm]))
        r = out["r"]
        expect(np.array_equal(permuted.levels, r.levels)
               and np.array_equal(permuted.breakpoints, r.breakpoints),
               "a permuted copy rearranges differently")
        if with_mpmath:
            for (p, q), (n1, _) in zip(_indices(), out["forms"]):
                exact = float(oracles.lorentz_mp(f.values, f.measures, p, q))
                expect(rel_err(n1, exact) <= 1e-10, f"({p:g}, {q:g}): {n1!r} vs mpmath {exact!r}")
        first["summary"] = summary

    return check


def _check_overflow(f, idx):
    exact = []

    def check(out, round_index):
        bad = [v for v in out if not math.isfinite(v)]
        if bad:
            raise OpFailed(f"non-finite norm at (p, q) = {idx}: {out}")
        if not exact:
            exact.append(float(oracles.lorentz_mp(f.values, f.measures, *idx)))
        for v in out:
            expect(rel_err(v, exact[0]) <= 1e-10, f"{v!r} vs mpmath {exact[0]!r}")

    return check


WORKLOADS = {
    "primitive-raster": primitive_raster,
    "trace-diagnostics": trace_diagnostics,
    "lorentz-sweep": lorentz_sweep,
}
