"""Command-line interface: norms, domain renders, scans, profile search,
and a deterministic reproduction battery for the package's pinned values."""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import domains, isoperimetry, lorentz, rearrangement, traces

GALLERY_TAGS = sorted(domains._GALLERY) + ["rectangle"]
FIELDS = ("inv_d", "hardy_ratio")


def _build_domain(args) -> domains.Domain:
    if args.gallery == "rectangle":
        if getattr(args, "a", None) is None:
            raise SystemExit("the rectangle needs --a in (0, 1)")
        return domains.rectangle(args.a)
    return domains.gallery(args.gallery, kmax=args.kmax)


def _field_sample(dom: domains.Domain, gd: domains.GridDomain, field: str):
    if field == "inv_d":
        u = traces.constant_function(gd, 1.0)
    elif field == "hardy_ratio":
        if dom.descriptor.get("tag") != "punctured_ball":
            raise SystemExit("--field hardy_ratio is defined on the punctured ball")
        u = traces.sample_function(
            gd, lambda x: 1.0 - np.linalg.norm(x, axis=-1), "1-|x|"
        )
    else:
        raise SystemExit(f"unknown field {field!r}; known: {FIELDS}")
    return traces.ratio_field(u)


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args) -> int:
    p = args.p
    q = math.inf if args.q in ("inf", "INF") else float(args.q)
    if args.csv:
        with open(args.csv) as fh:
            f = rearrangement.SampledFunction.from_csv(fh.read())
        source = args.csv
    else:
        dom = _build_domain(args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gd = domains.rasterize(dom, args.h)
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
    }
    if math.isinf(q) and f.value_cap is not None:
        payload["value_cap"] = f.value_cap
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gd = domains.rasterize(dom, args.h)
    point = isoperimetry.profile_search(gd, args.s, budget=args.budget,
                                        seed=args.seed)
    bound = point.analytic_lower_bound
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("s,witness_perimeter,analytic_bound\n")
            fh.write(f"{point.s:.17g},{point.witness_perimeter:.17g},"
                     f"{'' if bound is None else format(bound, '.17g')}\n")
        print(f"wrote {args.out}")
    if args.json:
        payload = {
            "s": point.s,
            "witness_perimeter": point.witness_perimeter,
            "analytic_lower_bound": bound,
            "witness": {k: v for k, v in point.witness.items()},
            "notes": list(point.notes),
        }
        print(json.dumps(payload, sort_keys=True, default=float))
    else:
        print(f"{args.gallery}: profile at s = {args.s:g}")
        print(f"  witness perimeter: {point.witness_perimeter:.12g}")
        if bound is not None:
            print(f"  analytic lower bound: {bound:.12g}")
        print(f"  witness: {point.witness.get('kind', '?')}")
    return 0


# ---------------------------------------------------------------------------
# reproduction battery


def _check(name, ok, detail):
    return {"id": name, "ok": bool(ok), "detail": detail}


def _battery_cube_weak_norm(seed):
    rows = []
    for n, h in ((1, 2.0**-7), (2, 2.0**-7), (3, 2.0**-5)):
        gd = domains.rasterize(domains.unit_cube(n), h)
        est = traces.weak_norm_estimate(traces.constant_function(gd, 1.0), p=1.0)
        rel = abs(est.estimate - 2.0 * n) / (2.0 * n)
        rows.append((n, est.estimate, rel))
    ok = all(r[2] <= 0.02 for r in rows)
    detail = "; ".join(f"N={n}: {e:.6g} (rel {r:.2e})" for n, e, r in rows)
    return _check("cube_weak_norm", ok, detail)


def _battery_cube_distribution_tail(seed):
    gd = domains.rasterize(domains.unit_cube(2), 2.0**-8)
    f = traces.ratio_field(traces.constant_function(gd, 1.0))
    model = domains.unit_cube(2).ratio_models["inv_d"]
    errs = []
    for xi in (8.0, 16.0, 32.0):
        grid_mu = rearrangement.distribution(f, xi)
        errs.append(abs(grid_mu - model.mu(xi)))
    ok = max(errs) <= 1e-12
    return _check(
        "cube_distribution_tail", ok,
        f"max |grid - closed form| at aligned levels = {max(errs):.3g}",
    )


def _battery_punctured_ball_ratio(seed):
    model = domains.punctured_ball(2).ratio_models["hardy_ratio"]
    tail = lorentz.weak_norm_tail(model, xi_floor=1.0, p=1.0)
    full = lorentz.weak_norm_tail(model, p=1.0)
    ok = abs(tail - math.pi / 4.0) <= 1e-9 and abs(full - math.pi) <= 1e-6
    return _check(
        "punctured_ball_ratio", ok,
        f"tail sup = {tail:.12g} (pi/4 = {math.pi/4:.12g}), full = {full:.12g}",
    )


def _battery_rectangle_profile_search(seed):
    a = 0.5
    dom = domains.rectangle(a)
    gd = domains.rasterize(dom, 2.0**-7)
    rows = []
    ok = True
    for s in (0.3 * a * a / math.pi, 0.2 * a / 2.0, a / 2.0):
        point = isoperimetry.profile_search(gd, s)
        ref = isoperimetry.rectangle_profile(a, s)
        good = (point.witness_perimeter >= ref.lower_bound - 4.0 * gd.h
                and point.witness_perimeter <= ref.witness_perimeter + 4.0 * gd.h)
        ok = ok and good
        rows.append(f"s={s:.4g}: {point.witness_perimeter:.6g} "
                    f"(exact {ref.witness_perimeter:.6g})")
    return _check("rectangle_profile_search", ok, "; ".join(rows))


def _battery_skyscrapers_profile(seed):
    dom = domains.skyscrapers(kmax=3)
    gd = domains.rasterize(dom, 2.0**-6)
    exact = abs(gd.grid_measure - dom.measure) <= 1e-12
    point = isoperimetry.profile_search(gd, 0.5)
    bound = isoperimetry.skyscraper_profile_bound(0.5, dom)
    ok = exact and point.witness_perimeter >= bound and point.witness_perimeter <= 1.0 + 4.0 * gd.h
    return _check(
        "skyscrapers_profile", ok,
        f"grid measure exact: {exact}; witness {point.witness_perimeter:.6g} "
        f">= bound {bound:.6g}",
    )


def _battery_squares_stack_portion(seed):
    dom = domains.squares_stack(kmax=8)
    report = domains.ball_portion_scan(dom, mc_samples=20000, seed=seed)
    ok = report.verdict == domains.VIOLATED_SEQUENCE_FOUND and len(
        report.violating_sequence) >= 3
    last = report.violating_sequence[-1][2] if report.violating_sequence else float("nan")
    return _check(
        "squares_stack_portion", ok,
        f"verdict {report.verdict}; final sequence ratio {last:.4g}",
    )


def _battery_rooms_witness_bound(seed):
    ss = np.geomspace(1e-6, math.pi * 2.0**-4 * 0.999, 25)
    ok = True
    worst = 0.0
    for s in ss:
        w = isoperimetry.rooms_passages_witness(float(s), kmax=16)
        ratio = w["perimeter"] / w["quadratic_bound"]
        worst = max(worst, ratio)
        ok = ok and w["tail_measure"] >= s and ratio <= 1.0 + 1e-12
    return _check(
        "rooms_witness_bound", ok,
        f"25 measures; max perimeter/bound ratio = {worst:.6g} (1 at bracket edges)",
    )


def _battery_lorentz_form_equivalence(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        m = rng.integers(1, 40)
        vals = np.round(rng.exponential(2.0, m), 3)
        meas = rng.uniform(0.01, 2.0, m)
        f = rearrangement.SampledFunction(vals, meas)
        for p in (1.0, 1.5, 2.0, 7.0):
            for q in (1.0, 2.0, p, math.inf):
                n1 = lorentz.lorentz_quasinorm(f, (p, q))
                n2 = lorentz.lorentz_quasinorm_distribution(f, (p, q))
                if n1 > 0:
                    worst = max(worst, abs(n1 - n2) / n1)
    return _check("lorentz_form_equivalence", worst <= 1e-10,
                  f"max relative gap over battery = {worst:.3g}")


def _battery_embedding_constants(seed):
    ok = abs(lorentz.embedding_constant(2.0, 1.0, math.inf) - 2.0) <= 1e-15
    ok = ok and abs(lorentz.embedding_constant(3.0, 1.0, 2.0) - 3.0 ** 0.5) <= 1e-15
    ok = ok and lorentz.embedding_constant(2.0, math.inf, math.inf) == 1.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        m = rng.integers(1, 30)
        f = rearrangement.SampledFunction(
            rng.exponential(1.0, m) + 0.01, rng.uniform(0.01, 1.0, m))
        p = float(rng.uniform(1.0, 5.0))
        q = float(rng.uniform(1.0, p))
        r = q + float(rng.exponential(2.0))
        c = lorentz.embedding_constant(p, q, r)
        lhs = lorentz.lorentz_quasinorm(f, (p, r))
        rhs = c * lorentz.lorentz_quasinorm(f, (p, q))
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    ok = ok and worst <= 1.0 + 1e-12
    return _check("embedding_constants", ok,
                  f"pinned values ok; max lhs/(C rhs) = {worst:.6g}")


def _battery_sierpinski_strictness(seed):
    K = lorentz.sierpinski_threshold(1.0)
    ok = abs(K - math.exp(-math.e)) <= 1e-16
    model = lorentz.sierpinski_model(1.0)
    t = 1e-12
    val = t * model.quantile(t)
    ok = ok and abs(val - 0.30129) <= 2e-4
    certs = []
    for q in (1.0, 2.0):
        cert = lorentz.sierpinski_divergence_certificate(1.0, q)
        certs.append(cert["strictly_increasing"])
    ok = ok and all(certs)
    rep = lorentz.ac_diagnostic(model, p=1.0)
    ok = ok and rep.verdict == lorentz.AC_CONSISTENT
    return _check(
        "sierpinski_strictness", ok,
        f"K = {K:.12g}; t*h(1e-12) = {val:.6g}; certificates increasing: {certs}; "
        f"AC verdict {rep.verdict}",
    )


def _battery_cube_truncation_scheme(seed):
    gd = domains.rasterize(domains.unit_cube(2), 2.0**-7)
    rep1 = traces.approximation_scheme(traces.constant_function(gd, 1.0), p=1.0)
    valid = [r for r in rep1.rows if not r[4]]
    kmu = valid[-1][3]
    ok = rep1.verdict == traces.INCONSISTENT_WITH_ZERO_TRACE
    ok = ok and abs(kmu - 4.0) / 4.0 <= 0.05
    rep2 = traces.approximation_scheme(traces.distance_function(gd), p=1.0)
    ok = ok and rep2.verdict == traces.CONSISTENT_WITH_ZERO_TRACE
    return _check(
        "cube_truncation_scheme", ok,
        f"u=1: {rep1.verdict}, last resolvable k mu = {kmu:.6g}; u=d: {rep2.verdict}",
    )


def _battery_unit_interval_traces(seed):
    cases = [
        (lambda x: np.sin(math.pi * x), lambda x: math.pi * np.cos(math.pi * x), 2.0),
        (lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x, 1.0),
        (lambda x: np.ones_like(np.asarray(x, dtype=float)),
         lambda x: np.zeros_like(np.asarray(x, dtype=float)), 3.0),
    ]
    ok = True
    for u, du, p in cases:
        rep = traces.oned_zero_trace(u, 0.0, 1.0, p, du=du)
        ok = ok and rep.sup <= rep.two_term_bound * (1.0 + 1e-9)
        ok = ok and rep.sup <= rep.collapsed_bound * (1.0 + 1e-9)
    counter = traces.oned_zero_trace(
        lambda x: 1.0 + 0.1 * np.sin(math.pi * x),
        0.0, 1.0, 2.0,
        du=lambda x: 0.1 * math.pi * np.cos(math.pi * x),
    )
    ok = ok and not counter.power_sum_holds
    return _check(
        "unit_interval_traces", ok,
        f"two-term and collapsed bounds hold; power-sum fails as pinned "
        f"(sup {counter.sup:.4g} > {counter.power_sum_bound:.4g})",
    )


def _battery_rearrangement_invariants(seed):
    f = rearrangement.SampledFunction.from_pairs([(3.0, 0.2), (1.0, 0.5), (2.0, 0.3)])
    r = rearrangement.rearrange(f)
    ok = np.allclose(r.levels, [3.0, 2.0, 1.0]) and np.allclose(
        r.breakpoints, [0.0, 0.2, 0.5, 1.0])
    ok = ok and rearrangement.distribution(f, 1.5) == 0.5
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        vals = rng.exponential(1.0, m)
        meas = rng.uniform(0.01, 1.0, m)
        g = rearrangement.SampledFunction(vals, meas)
        perm = rng.permutation(m)
        gp = rearrangement.SampledFunction(vals[perm], meas[perm])
        for xi in rng.exponential(1.0, 4):
            a = rearrangement.distribution(g, xi)
            b = rearrangement.distribution(gp, xi)
            if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15):
                ok = False
    return _check("rearrangement_invariants", ok,
                  "pinned oracle and permutation equimeasurability hold")


_BATTERY = [
    _battery_cube_weak_norm,
    _battery_cube_distribution_tail,
    _battery_punctured_ball_ratio,
    _battery_rectangle_profile_search,
    _battery_skyscrapers_profile,
    _battery_squares_stack_portion,
    _battery_rooms_witness_bound,
    _battery_lorentz_form_equivalence,
    _battery_embedding_constants,
    _battery_sierpinski_strictness,
    _battery_cube_truncation_scheme,
    _battery_unit_interval_traces,
    _battery_rearrangement_invariants,
]
_BATTERY_IDS = {fn.__name__.replace("_battery_", ""): fn for fn in _BATTERY}


def cmd_verify(args) -> int:
    if args.list:
        for name in _BATTERY_IDS:
            print(name)
        return 0
    if args.only:
        if args.only not in _BATTERY_IDS:
            raise SystemExit(
                f"unknown check {args.only!r}; see `sobtrace verify --list`")
        fns = [_BATTERY_IDS[args.only]]
    else:
        fns = _BATTERY
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in fns:
            results.append(fn(args.seed))
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        for res in results:
            status = "PASS" if res["ok"] else "FAIL"
            print(f"{status} {res['id']}: {res['detail']}")
    failed = [r for r in results if not r["ok"]]
    if not args.json:
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


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
        raise SystemExit(f"`sobtrace {args.command}` needs --gallery")
    if args.command == "norm" and not args.csv and args.gallery is None:
        raise SystemExit("`sobtrace norm` needs --csv or --gallery")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
