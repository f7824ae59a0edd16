"""Benchmark of sobtrace: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload primitive-raster --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --spread perfbench/results/lorentz-sweep.seed*.trace0.json

A run starts fresh interpreters (``worker.py``) one after another, never
two at once, with the BLAS and OpenMP pools capped at one thread.  With
``--trace 0`` it times set-up in several of them and runs the workload in
one; with ``--trace 1`` it runs the workload untraced and then traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result as JSON; the same result and the workers'
details go to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("primitive-raster", "trace-diagnostics", "lorentz-sweep")
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _spawn(workload, seed, seconds, deadline, trace=0, setup_only=False, spans_out=None):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_CAPS})
    env.pop("SOBTRACE_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker for {workload} ran past the {RUN_DEADLINE_S:g} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_spec(kind: str):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}.seed{seed}"
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        spec = _metric_spec("per_layer")
        plain = _spawn(workload, seed, seconds, deadline)
        spans = RESULTS / f"{stem}.spans.json"
        main = _spawn(workload, seed, seconds, deadline, trace=1, spans_out=spans)
        values = dict(main["layers"], **{"trace.overhead_s": main["wall_s"] - plain["wall_s"]})
        runs = [plain, main]
    else:
        spec = _metric_spec("end_to_end")
        setups = [_spawn(workload, seed, seconds, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _spawn(workload, seed, seconds, deadline)
        setups.append(main["setup_s"])
        values = {name: main[name] for name in ("wall_s", "op_s.p50", "op_s.p90", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        runs = [main]
        details["setup_samples"] = setups
    result = {
        "correct": all(run["wrong"] == 0 for run in runs),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    details.update(result=result, workers=runs)
    with open(RESULTS / f"{stem}.trace{trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    return result


# ---------------------------------------------------------------------------
# reading result files


def _load(path):
    with open(path) as fh:
        data = json.load(fh)
    return data.get("workload", "?"), data.get("result", data)["metrics"]


def _better():
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in _metric_spec(kind):
            out[m["name"]] = m["better"]
    return out


def compare(base_path, new_path) -> int:
    """Print new/base for every metric of two result files."""
    wl_a, base = _load(base_path)
    wl_b, new = _load(new_path)
    better = _better()
    print(f"base {base_path} ({wl_a})\nnew  {new_path} ({wl_b})")
    print(f"{'metric':48s} {'unit':>6s} {'base':>14s} {'new':>14s} {'new/base':>9s}  better")
    def cell(v, width=14, spec=".6g"):
        return f"{v:{width}{spec}}" if v is not None else "-".rjust(width)

    for name in sorted(set(base) | set(new)):
        a = base.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        unit = (base.get(name) or new.get(name))["unit"]
        ratio = cell(b / a if a and b is not None else None, 9, ".4f")
        print(f"{name:48s} {unit:>6s} {cell(a)} {cell(b)} {ratio}  {better.get(name, '?')}")
    return 0


def spread(paths) -> int:
    """Print the median and quartiles of every metric over repeated runs."""
    groups: dict[tuple, list[float]] = {}
    for path in paths:
        workload, metrics = _load(path)
        for name, m in metrics.items():
            groups.setdefault((workload, name, m["unit"]), []).append(m["value"])
    print(f"{'workload':18s} {'metric':44s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s}")
    for (workload, name, unit), values in sorted(groups.items()):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = f"{(q3 - q1) / med:8.4f}" if med else f"{'-':>8s}"
        print(f"{workload:18s} {name + ' [' + unit + ']':44s} {len(values):3d} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {share}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--spread", nargs="+", metavar="RESULT")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.spread:
        return spread(args.spread)
    if not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "sobtrace" / "__init__.py").is_file():
        print(f"no sobtrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            return 3
        line = {"workload": name, **result} if args.workload == "all" else result
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
