"""One benchmark process: import sobtrace, build a workload, run its rounds.

Started by ``run.py``, never by hand.  It prints one JSON object on its
last line of standard output.  With ``--setup-only`` it stops once the
inputs are built and reports the set-up time alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import sobtrace
    import sobtrace.cli
    import_s = time.perf_counter() - t0
    if Path(sobtrace.__file__).resolve().parent != (src / "sobtrace").resolve():
        print(f"imported sobtrace from {sobtrace.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, sobtrace)
        span = tracer.span
    # the CLI silences rasterize's thin-feature notes the same way; numpy's
    # overflow warnings from the F2 ops would otherwise flood stderr
    warnings.simplefilter("ignore")
    wl = workloads.WORKLOADS[args.workload](sobtrace, args.seed, span)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for op in wl.warmups:
        op.fn()
    # move everything set-up made out of the collector's reach, so the full
    # collection before each op scans only what the ops leave behind
    gc.collect()
    gc.freeze()
    records, round_walls = run_rounds(wl, args.seconds, tracer)

    ok_times = [r["s"] for r in records if r["outcome"] == "ok"]
    cuts = statistics.quantiles(ok_times, n=10, method="inclusive")
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": statistics.median(round_walls),
        "op_s.p50": statistics.median(ok_times),
        "op_s.p90": cuts[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "attempted": len(records),
        "failed": sum(r["outcome"] != "ok" for r in records),
        "wrong": sum(r["outcome"] == "wrong" for r in records),
        "failures": _failure_summary(records),
        "op_times": _op_summary(records),
        "inputs": wl.notes,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, len(round_walls))
        result["layers"]["cli.import_s"] = import_s
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                           "ops": [[r["kind"], r["round"]] for r in records],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


def run_rounds(wl, seconds, tracer):
    """Whole rounds until the ops have been timed for ``seconds`` in total.

    Each op runs with the garbage collector off after a collection, so no
    collection lands inside a timed op; its check runs after the timer.
    """
    import workloads

    records = []
    round_walls = []
    measured = 0.0
    r = 0
    while r == 0 or measured < seconds:
        wall = 0.0
        for op in wl.order(r):
            gc.collect()
            gc.disable()
            if tracer is not None:
                tracer.op = len(records)
            out = error = None
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            gc.enable()
            wall += dt
            outcome, message = "ok", None
            if error is not None:
                outcome, message = "failed", f"{type(error).__name__}: {error}"
            else:
                try:
                    op.check(out, r)
                except workloads.OpFailed as exc:
                    outcome, message = "failed", str(exc)
                except workloads.WrongOutput as exc:
                    outcome, message = "wrong", str(exc)
            del out
            records.append({"kind": op.kind, "round": r, "s": dt, "outcome": outcome,
                            "message": message, "fault": op.fault})
        round_walls.append(wall)
        measured += wall
        r += 1
    return records, round_walls


def _failure_summary(records):
    out = {}
    for r in records:
        if r["outcome"] != "ok":
            entry = out.setdefault(r["kind"], {"count": 0, "outcome": r["outcome"],
                                               "fault": r["fault"], "message": r["message"]})
            entry["count"] += 1
    return out


def _op_summary(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["s"])
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in sorted(by_kind.items())}


if __name__ == "__main__":
    sys.exit(main())
