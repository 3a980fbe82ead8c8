"""Command-line interface: deterministic, scriptable JSON on stdout.

Exit codes: 0 success (or Isomorphic), 1 Far, 2 usage/input error or a
failed self-check of a computed object, 3 work budget or size cap
exceeded: every budget and cap is one rule, BudgetExceededError.check,
and reports the count it refused as "attempted".  `ged`/`qap` need eps > 0.
Rationals are "p/q" strings.  ROBUSTISO_BUDGET, an integer >= 0 like the
oracles' --cap, sets all four work budgets, each in its own unit: alphas
for `ged`/`qap` (default 200,000), (tuple, vertex) pairs of one k-WL
round (default 10^6), (threshold, alpha) pairs of the weak-VC test
(default 10^7) and the nodes of each exact VC search of `vc` and
`gen random --target-vc` (default unbounded).  The first three
are counted before the work starts, so `ged`/`qap` exit 3 before their
first LP; a VC search stops at the node past its budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import approx, generators, setsystems, wl
from .errors import BudgetExceededError, ParseError, VerificationError
from .graphs import (
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    parse_graph,
    serialize_graph,
)
from .qap import parse_qap, qap_bruteforce, serialize_qap
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_FAR = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _count(raw: str) -> int:
    """An integer >= 0, the form of every work budget and size cap."""
    try:
        count = int(raw)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {raw!r}")
    return count


def _budget() -> dict:
    raw = os.environ.get("ROBUSTISO_BUDGET")
    if raw is None:
        return {}
    try:
        return {"budget": _count(raw)}
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ROBUSTISO_BUDGET {exc}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _load_qap(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_qap(fh.read())


def _rational(value: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_vc(args) -> int:
    out: dict = {}
    if args.graph and (args.threshold is not None or args.weak_d is not None):
        raise ValueError("--threshold and --weak-d apply to vc --qap only")
    if args.qap and (args.weighted or args.mixed):
        raise ValueError("--weighted and --mixed apply to vc --graph only")
    if args.graph:
        g = _load_graph(args.graph)
        out["input"] = args.graph
        if args.mixed:
            out["mvc"] = setsystems.vc_dimension_exact(
                setsystems.mixed_system(g), **_budget()
            )
        elif args.weighted:
            out["wvc"] = setsystems.weighted_graph_vc(g, **_budget())
        else:
            out["nvc"] = setsystems.vc_dimension_exact(
                setsystems.neighbourhood_system(g), **_budget()
            )
    else:
        q = _load_qap(args.qap)
        out["input"] = args.qap
        if args.weak_d is not None:
            out["d"] = args.weak_d
            out["weak_vc_le_d"] = setsystems.weak_vc_test(q, args.weak_d, **_budget())
        else:
            t = args.threshold if args.threshold is not None else Fraction(0)
            out["threshold"] = format_rational(t)
            out["qap_vc"] = setsystems.vc_dimension_exact(
                setsystems.qap_threshold_system(q, t), **_budget()
            )
    _emit(out)
    return EXIT_OK


def cmd_approximate(args) -> int:
    """`ged` and `qap`: approximate_ged is approximate_qap on the edit-distance
    reduction, so both print one payload.  The brute-force oracle runs when n
    is within --oracle-cap."""
    ged = args.command == "ged"
    inputs = (_load_graph(args.g), _load_graph(args.h)) if ged else (_load_qap(args.qap),)
    start = time.monotonic()
    options = dict(eps=args.eps, m=args.m, seed=args.seed, mode=args.mode,
                   lp_method=args.lp, **_budget())
    if ged:
        result = approx.approximate_ged(*inputs, **options)
        cost, report = result.cost, result.report
    else:
        report = approx.approximate_qap(*inputs, **options)
        cost = report.best_cost
    elapsed = (time.monotonic() - start) * 1000
    out = {
        "approx_cost" if ged else "best_cost": format_rational(cost),
        "assignment": list(report.best_assignment.mapping),
        "eps": format_rational(args.eps),
        "m": args.m,
        "mode": args.mode,
        "seed": args.seed,
        "alphas_tried": report.alphas_tried,
        "lps_infeasible": report.lps_infeasible,
        "timing_ms": round(elapsed, 3),
    }
    if inputs[0].n <= args.oracle_cap:
        oracle = edit_distance_bruteforce if ged else qap_bruteforce
        oracle_cost, _ = oracle(*inputs, cap=args.oracle_cap)
        out["oracle_cost"] = format_rational(oracle_cost)
        out["gap"] = format_rational(cost - oracle_cost)
    _emit(out)
    return EXIT_OK


def cmd_robust_gi(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    cert = wl.robust_gi(g, h, args.eps, strategy=args.strategy, **_budget())
    out = {
        "answer": cert.answer,
        "eps": format_rational(cert.eps),
        "strategy": cert.strategy,
        "S": list(cert.s_vertices),
        "k": cert.k,
        "distinguishing_colour": cert.distinguishing_colour,
        "histograms_digest": cert.histograms_digest,
    }
    _emit(out)
    return EXIT_FAR if cert.answer == "far" else EXIT_OK


def cmd_wl(args) -> int:
    g = _load_graph(args.g)
    budget = _budget()
    if args.h is None:
        colouring = wl.k_wl_stable(g, args.k, **budget)
        _emit(
            {
                "input": args.g,
                "k": args.k,
                "num_colours": colouring.num_classes(),
                "rounds": colouring.rounds,
                "histogram": {str(c): v for c, v in sorted(colouring.histogram.items())},
            }
        )
        return EXIT_OK
    h = _load_graph(args.h)
    comparison = wl.wl_compare(g, h, args.k, **budget)
    _emit(
        {
            "k": args.k,
            "distinguishes": comparison.distinguishes,
            "distinguishing_colour": comparison.distinguishing_colour,
            "histograms_digest": comparison.digest(),
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    out = {"family": args.family}
    if args.family in ("cfi", "blowup"):
        if args.family == "cfi":
            bundle = generators.gen_cfi_pair(args.base)
        else:
            bundle = generators.gen_blowup_pair(generators.load_bundle(args.inp), args.ell)
        out["written"] = generators.save_bundle(bundle, args.out)
    else:
        if args.family == "vcgap":
            text = serialize_qap(generators.gen_vc_gap_qap(args.n))
        else:
            g = generators.gen_random_graph(
                args.n, edge_prob=float(args.p), target_vc=args.target_vc, seed=args.seed,
                **_budget(),
            )
            text = serialize_graph(g)
            out["seed"] = args.seed
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out["written"] = [args.out]
    _emit(out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.kind == "iso":
        g = _load_graph(args.a)
        h = _load_graph(args.b)
        iso = is_isomorphic_bruteforce(g, h)
        _emit(
            {
                "kind": "iso",
                "isomorphic": iso is not None,
                "assignment": None if iso is None else list(iso.mapping),
            }
        )
        return EXIT_OK
    if args.kind == "ged":
        cost, assignment = edit_distance_bruteforce(
            _load_graph(args.a), _load_graph(args.b), cap=args.cap
        )
    else:
        cost, assignment = qap_bruteforce(_load_qap(args.a), cap=args.cap)
    _emit(
        {
            "kind": args.kind,
            "cost": format_rational(cost),
            "assignment": list(assignment.mapping),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustiso",
        description="Edit distance / QAP additive approximation and "
        "WL-based robust isomorphism testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vc", help="VC dimension of graph/QAP set systems")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--qap")
    system = p.add_mutually_exclusive_group()
    system.add_argument("--weighted", action="store_true",
                        help="max VC over all weight thresholds (--graph only)")
    system.add_argument("--mixed", action="store_true",
                        help="VC of the mixed-neighbourhood system (--graph only)")
    system.add_argument("--threshold", type=_rational, default=None,
                        help="threshold for the QAP hypothesis system (--qap only; "
                        "default 0)")
    system.add_argument("--weak-d", type=int, default=None,
                        help="test whether the weak VC dimension is at most d "
                        "(--qap only)")
    p.set_defaults(fn=cmd_vc)

    approx_flags = argparse.ArgumentParser(add_help=False)
    approx_flags.add_argument("--eps", type=_rational, required=True)
    approx_flags.add_argument("--seed", type=int, required=True)
    approx_flags.add_argument("--m", type=int, default=1)
    approx_flags.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    approx_flags.add_argument("--lp", choices=["exact", "highs"], default="highs")
    for name, inputs, oracle_cap, help_text in (
        ("ged", ["g", "h"], 8, "approximate graph edit distance"),
        ("qap", ["qap"], 7, "approximate a QAP instance"),
    ):
        p = sub.add_parser(name, parents=[approx_flags], help=help_text)
        for dest in inputs:
            p.add_argument(dest)
        p.add_argument("--oracle-cap", type=_count, default=oracle_cap)
        p.set_defaults(fn=cmd_approximate)

    p = sub.add_parser("robust-gi", help="promise isomorphism test")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--strategy", choices=["net", "coloured"], default="net")
    p.set_defaults(fn=cmd_robust_gi)

    p = sub.add_parser("wl", help="k-WL stable colouring / distinguishing")
    p.add_argument("g")
    p.add_argument("h", nargs="?", default=None)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=cmd_wl)

    p = sub.add_parser("gen", help="generate paper-construction instances")
    p.set_defaults(fn=cmd_gen)
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", required=True, help="output file or directory")
    families = p.add_subparsers(dest="family", required=True)
    f = families.add_parser("cfi", parents=[out_flag])
    f.add_argument("--base", default="k4")
    f = families.add_parser("blowup", parents=[out_flag])
    f.add_argument("--in", dest="inp", required=True, help="input bundle directory")
    f.add_argument("--ell", type=int, default=2)
    f = families.add_parser("vcgap", parents=[out_flag])
    f.add_argument("--n", type=int, required=True)
    f = families.add_parser("random", parents=[out_flag])
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--p", type=_rational, default=Fraction(1, 2))
    f.add_argument("--target-vc", type=int, default=None)

    p = sub.add_parser("oracle", help="exact brute-force oracles")
    p.set_defaults(fn=cmd_oracle)
    cap_flag = argparse.ArgumentParser(add_help=False)
    cap_flag.add_argument("--cap", type=_count, default=10, help="largest n to enumerate")
    kinds = p.add_subparsers(dest="kind", required=True)
    f = kinds.add_parser("ged", parents=[cap_flag])
    f.add_argument("a")
    f.add_argument("b")
    f = kinds.add_parser("qap", parents=[cap_flag])
    f.add_argument("a")
    f = kinds.add_parser("iso")
    f.add_argument("a")
    f.add_argument("b")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        _emit({"error": "budget-exceeded", "detail": str(exc), "attempted": exc.attempted})
        return EXIT_BUDGET
    except (ParseError, ValueError, OSError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
