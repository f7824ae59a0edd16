"""Command-line interface: norms, domain renders, scans, profile search,
and ``verify``, which runs the pinned checks of ``sobtrace.checks``."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import checks, domains, isoperimetry, lorentz, rearrangement, traces
from .report import csv_text

GALLERY_TAGS = sorted(domains._GALLERY) + ["rectangle"]
FIELDS = ("inv_d", "hardy_ratio")


def _build_domain(args) -> domains.Domain:
    if args.gallery == "rectangle":
        if getattr(args, "a", None) is None:
            raise ValueError("the rectangle needs --a in (0, 1)")
        return domains.rectangle(args.a)
    return domains.gallery(args.gallery, kmax=args.kmax)


def _field_sample(dom: domains.Domain, gd: domains.GridDomain, field: str):
    if field == "inv_d":
        u = traces.constant_function(gd, 1.0)
    elif field == "hardy_ratio":
        if dom.descriptor.get("tag") != "punctured_ball":
            raise ValueError("--field hardy_ratio is defined on the punctured ball")
        u = traces.sample_function(
            gd, lambda x: 1.0 - np.linalg.norm(x, axis=-1), "1-|x|"
        )
    else:
        raise ValueError(f"unknown field {field!r}; known: {FIELDS}")
    return traces.ratio_field(u)


# ---------------------------------------------------------------------------
# subcommands


def _print_notes(notes) -> None:
    for note in notes:
        print(f"note: {note}", file=sys.stderr)


def cmd_norm(args) -> int:
    p = args.p
    q = math.inf if args.q in ("inf", "INF") else float(args.q)
    notes = ()
    if args.csv:
        with open(args.csv) as fh:
            f = rearrangement.SampledFunction.from_csv(fh.read())
        source = args.csv
    else:
        dom = _build_domain(args)
        gd = domains.rasterize(dom, args.h)
        notes = gd.notes
        f = _field_sample(dom, gd, args.field)
        source = f"{args.gallery}:{args.field} at h={args.h:g}"
    rearranged = lorentz.lorentz_quasinorm(f, (p, q))
    dist_form = lorentz.lorentz_quasinorm_distribution(f, (p, q))
    payload = {
        "source": source,
        "p": p,
        "q": "inf" if math.isinf(q) else q,
        "quasinorm_rearranged": rearranged,
        "quasinorm_distribution": dist_form,
        "total_measure": f.total_measure,
        "notes": list(notes),
    }
    if math.isinf(q) and f.value_cap is not None:
        payload["value_cap"] = f.value_cap
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_notes(notes)
        qs = "inf" if math.isinf(q) else f"{q:g}"
        print(f"L^({p:g},{qs}) quasinorm of {source}")
        print(f"  rearranged form:   {rearranged:.12g}")
        print(f"  distribution form: {dist_form:.12g}")
    return 0


def cmd_render(args) -> int:
    dom = _build_domain(args)
    svg = domains.render_svg(dom, width_px=args.width)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    else:
        print(svg)
    return 0


def cmd_scan(args) -> int:
    dom = _build_domain(args)
    report = domains.ball_portion_scan(
        dom,
        b_threshold=args.b_threshold,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"{args.gallery}: {len(report.probes)} ball-portion probes")
        print(f"  infimum estimate: {report.infimum_estimate:.6g}")
        print(f"  verdict: {report.verdict}")
        if report.violating_sequence:
            pts = ", ".join(f"{r[2]:.4g}" for r in report.violating_sequence)
            print(f"  violating sequence ratios: {pts}")
    return 0


def cmd_profile(args) -> int:
    dom = _build_domain(args)
    gd = domains.rasterize(dom, args.h)
    point = isoperimetry.profile_search(gd, args.s, budget=args.budget,
                                        seed=args.seed)
    bound = point.analytic_lower_bound
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text("s,witness_perimeter,analytic_bound",
                              [(point.s, point.witness_perimeter, bound)]))
        print(f"wrote {args.out}")
    if args.json:
        print(point.to_json())
    else:
        _print_notes(gd.notes)
        print(f"{args.gallery}: profile at s = {args.s:g}")
        print(f"  witness perimeter: {point.witness_perimeter:.12g}")
        if bound is not None:
            print(f"  analytic lower bound: {bound:.12g}")
        print(f"  witness: {point.witness.get('kind', '?')}")
    return 0


def cmd_verify(args) -> int:
    if args.list:
        print("\n".join(checks.CHECKS))
        return 0
    if args.only and args.only not in checks.CHECKS:
        raise ValueError(f"unknown check {args.only!r}; see `sobtrace verify --list`")
    results = []
    for name in [args.only] if args.only else checks.CHECKS:
        rows = [dict(zip(("quantity", "measured", "relation", "bound"), row),
                     ok=checks.row_ok(row))
                for row in checks.CHECKS[name](args.seed)]
        results.append({"id": name, "ok": all(row["ok"] for row in rows),
                        "detail": "; ".join(map(_row_text, rows)), "rows": rows})
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        for res in results:
            print(f"{'PASS' if res['ok'] else 'FAIL'} {res['id']}")
            for row in res["rows"]:
                print(f"  [{'ok' if row['ok'] else 'not ok'}] {_row_text(row)}")
        print(f"{sum(r['ok'] for r in results)}/{len(results)} checks passed")
    return 0 if all(r["ok"] for r in results) else 1


def _row_text(row) -> str:
    return f"{row['quantity']}: {row['measured']} {row['relation']} {row['bound']}"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobtrace",
        description="Rearrangements, Lorentz quasinorms, distance fields, "
                    "isoperimetric profiles, and zero-trace diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_domain_args(sp, with_h=True):
        sp.add_argument("--gallery", required=False, choices=GALLERY_TAGS,
                        help="domain tag")
        sp.add_argument("--kmax", type=int, default=12,
                        help="truncation depth for the fractal-like domains")
        sp.add_argument("--a", type=float, default=None,
                        help="short side for --gallery rectangle")
        if with_h:
            sp.add_argument("--h", type=float, default=2.0**-8, help="grid spacing")

    sp = sub.add_parser("norm", help="Lorentz quasinorm of a CSV sample or a "
                                     "gallery ratio field")
    sp.add_argument("--csv", help="CSV file with header value,measure")
    add_domain_args(sp)
    sp.add_argument("--field", default="inv_d", choices=FIELDS)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--q", default="inf")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("render", help="SVG line art of a 2-D gallery domain")
    add_domain_args(sp, with_h=False)
    sp.add_argument("--width", type=int, default=640)
    sp.add_argument("--out", help="output file (stdout when omitted)")
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("scan", help="Monte Carlo outer ball-portion scan")
    add_domain_args(sp, with_h=False)
    sp.add_argument("--b-threshold", type=float, default=0.01)
    sp.add_argument("--mc-samples", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("profile", help="isoperimetric profile search at one "
                                        "measure")
    add_domain_args(sp)
    sp.add_argument("--s", type=float, required=True, help="target measure")
    sp.add_argument("--budget", type=int, default=0, help="local search flips")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write s,witness_perimeter,analytic_bound CSV")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("verify", help="run the pinned reproduction battery")
    sp.add_argument("--only", help="run a single check by id")
    sp.add_argument("--list", action="store_true", help="list check ids")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gallery", None) is None and args.command in ("render", "scan",
                                                                   "profile"):
        parser.error(f"`sobtrace {args.command}` needs --gallery")
    if args.command == "norm" and not args.csv and args.gallery is None:
        parser.error("`sobtrace norm` needs --csv or --gallery")
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"sobtrace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
