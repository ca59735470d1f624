"""Command line front end.

Degree sequences and vectors travel as comma-separated values on the
command line; tables and modules travel as JSON files.  Every
subcommand takes --json for machine-readable output on stdout.  Exit
codes: 0 success, 1 domain error (message on stderr, prefixed
"error:"), 2 usage error.  DOT renderings of matching graphs go to the
path given by --dot, never to stdout.
"""

import argparse
import json
import sys

from . import __version__
from .bigraded import (bigraded_from_json_obj, bigraded_to_json_obj,
                       check_extremality_certificate, count_up_to_swap,
                       graph_to_dot, json_int, json_rational)
from .bs_cone import decompose_graded
from .errors import BetticoneError, NotInConeCandidate
from .es_construct import es_plan, es_ranks, render_plan_text, twist_table
from .local_cone import (LocalBettiVector, is_in_local_cone, limit_degrees,
                         limit_table, local_ray_coefficients)
from .module_engine import bigraded_betti, module_from_json_obj
from .rays import enumerate_box_rays
from .tables import (graded_from_json_obj, graded_to_json_obj,
                     hk_pure_table, pure_to_json_obj)


def _ints(text, field):
    return [json_int(part, field) for part in text.split(",")]

def _box(text):
    box = _ints(text, "--box")
    if len(box) != 2:
        raise ValueError("--box takes two comma-separated integers")
    return (box[0], box[1])

def _fractions(text):
    return [json_rational(part, "vector") for part in text.split(",")]

def _seq(values):
    return "(" + ",".join(str(v) for v in values) + ")"

def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None

def _print_json(obj):
    print(json.dumps(obj, indent=2))


def cmd_hk(args):
    pure = hk_pure_table(_ints(args.degrees, "degrees"))
    if args.json:
        _print_json(pure_to_json_obj(pure))
    else:
        print(f"{_seq(pure.degrees)} : "
              + " ".join(str(b) for b in pure.multiplicities))
    return 0


def cmd_es_plan(args):
    plan = es_plan(_ints(args.degrees, "degrees"))
    ranks = es_ranks(plan)
    if args.json:
        table = twist_table(plan)
        _print_json({
            "degrees": list(plan.degrees),
            "gaps": list(plan.gaps),
            "factors": [{"dim": m, "twist_base": base}
                        for m, base in plan.factors],
            "rows": [{"t": row.t, "ambient_degree": row.ambient_degree,
                      "twists": list(row.twists),
                      "survivor": bool(row.survivor)}
                     for row in table.rows],
            "ranks": list(ranks.multiplicities),
        })
    else:
        print(render_plan_text(plan))
        print("ranks : " + " ".join(str(b) for b in ranks.multiplicities))
    return 0


def _print_decomposition(dec, as_json):
    parts = [{"c": str(c), "degrees": list(p.degrees),
              "mult": list(p.multiplicities)} for c, p in dec.parts]
    residual = sorted(dec.residual.entries.items())
    if as_json:
        _print_json({
            "parts": parts,
            "residual": [{"i": i, "j": j, "b": str(b)}
                         for (i, j), b in residual],
            "complete": dec.is_complete(),
        })
        return
    for c, p in dec.parts:
        print(f"{c} × {_seq(p.degrees)}/{_seq(p.multiplicities)}")
    if dec.is_complete():
        print("residual: empty")
    else:
        print("residual: " + " ".join(f"({i},{j})={b}"
                                      for (i, j), b in residual))


def cmd_decompose(args):
    table = graded_from_json_obj(_load_json(args.table))
    try:
        dec = decompose_graded(table)
    except NotInConeCandidate as exc:
        if exc.decomposition is None:
            raise
        _print_decomposition(exc.decomposition, args.json)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_decomposition(dec, args.json)
    return 0


def cmd_local_check(args):
    verdict = is_in_local_cone(LocalBettiVector(_fractions(args.vector)))
    coeffs = verdict.partial_sums if verdict.alternating_sum == 0 else None
    if args.json:
        _print_json({
            "verdict": verdict.verdict,
            "alternating_sum": str(verdict.alternating_sum),
            "coefficients":
                None if coeffs is None else [str(c) for c in coeffs],
        })
    else:
        line = verdict.verdict.upper()
        if coeffs is not None:
            line += f" c={_seq(coeffs)}"
        print(line)
    return 0


def cmd_local_coeffs(args):
    coeffs = local_ray_coefficients(
        LocalBettiVector(_fractions(args.vector)))
    if args.json:
        _print_json({"coefficients": [str(c) for c in coeffs]})
    else:
        print(_seq(coeffs))
    return 0


def cmd_local_limit(args):
    degs = limit_degrees(args.i, args.j, args.n)
    vec = limit_table(args.i, args.j, args.n)
    if args.json:
        _print_json({"degrees": list(degs),
                     "vector": [str(v) for v in vec]})
    else:
        print(f"{_seq(degs)} : " + " ".join(str(v) for v in vec))
    return 0


def _betti_lines(table):
    by_i = {}
    for (i, alpha), count in sorted(table.entries.items()):
        by_i.setdefault(i, []).append((alpha, count))
    lines = []
    for i in sorted(by_i):
        cells = " ".join(f"({a},{b})" + (f"x{c}" if c > 1 else "")
                         for (a, b), c in by_i[i])
        lines.append(f"beta_{i}: {cells}")
    return lines or ["beta: empty"]


def _betti_one_line(table):
    return " ".join(f"{i}:({a},{b})" + (f"x{c}" if c > 1 else "")
                    for (i, (a, b)), c in sorted(table.entries.items()))


def _verdict_lines(verdict):
    lines = [verdict.verdict]
    for kind, subject, detail in verdict.failures:
        where = "" if subject is None else f" at {subject}"
        lines.append(f"  {kind}{where}: {detail}")
    return lines


def _failures_json(verdict):
    return [{"kind": kind,
             "subject": None if subject is None else list(subject),
             "detail": detail if not isinstance(detail, (list, tuple))
             else list(detail)}
            for kind, subject, detail in verdict.failures]


def cmd_bigraded_check(args):
    table = bigraded_from_json_obj(_load_json(args.table))
    verdict = check_extremality_certificate(table)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(verdict.graph))
    if args.json:
        _print_json({"verdict": verdict.verdict,
                     "failures": _failures_json(verdict)})
    else:
        print("\n".join(_verdict_lines(verdict)))
    return 0


def cmd_bigraded_rays(args):
    box = _box(args.box)
    if args.max_box is not None and args.max_box < 0:
        raise ValueError(
            f"--max-box must be a nonnegative integer, got {args.max_box}")
    rays = enumerate_box_rays(box, max_box=args.max_box)
    swap_count = count_up_to_swap(rays)
    if args.json:
        _print_json({
            "box": box,
            "count": len(rays),
            "count_up_to_swap": swap_count,
            "rays": [bigraded_to_json_obj(t) for t in rays],
        })
    else:
        for k, t in enumerate(rays):
            print(f"[{k:3d}] {_betti_one_line(t)}")
        print(f"{len(rays)} rays up to scalar "
              f"({swap_count} after swapping x and y)")
    return 0


def cmd_resolve(args):
    module = module_from_json_obj(_load_json(args.module))
    table = bigraded_betti(module)
    verdict = None
    if args.check or args.dot:
        verdict = check_extremality_certificate(table)
    if args.dot and verdict is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(graph_to_dot(verdict.graph))
    if args.json:
        obj = bigraded_to_json_obj(table)
        if args.check:
            obj["verdict"] = verdict.verdict
            obj["failures"] = _failures_json(verdict)
        _print_json(obj)
    else:
        print("\n".join(_betti_lines(table)))
        if args.check:
            print("\n".join(_verdict_lines(verdict)))
    return 0


def cmd_version(args):
    if args.json:
        _print_json({"name": "betticone", "version": __version__})
    else:
        print(f"betticone {__version__}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="betticone",
        description="Exact arithmetic for extremal Betti tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = with_json(sub.add_parser(
        "hk", help="minimal integer table of a pure degree sequence"))
    p.add_argument("degrees", help="comma-separated strictly "
                   "increasing integers, e.g. 0,1,3,5")
    p.set_defaults(func=cmd_hk)

    p = with_json(sub.add_parser(
        "es-plan", help="twist bookkeeping for the pure resolution "
        "construction"))
    p.add_argument("degrees")
    p.set_defaults(func=cmd_es_plan)

    p = with_json(sub.add_parser(
        "decompose", help="greedy decomposition into pure tables"))
    p.add_argument("table", help="graded table JSON file")
    p.set_defaults(func=cmd_decompose)

    local = sub.add_parser("local", help="coarse local cone tests")
    local_sub = local.add_subparsers(dest="subcommand", required=True)
    p = with_json(local_sub.add_parser("check",
                                       help="cone membership verdict"))
    p.add_argument("vector", help="comma-separated rationals")
    p.set_defaults(func=cmd_local_check)
    p = with_json(local_sub.add_parser("coeffs",
                                       help="ray coefficients"))
    p.add_argument("vector")
    p.set_defaults(func=cmd_local_coeffs)
    p = with_json(local_sub.add_parser(
        "limit", help="pure vector approaching a boundary ray"))
    p.add_argument("--i", type=int, required=True, help="ray index")
    p.add_argument("--j", type=int, required=True, help="gap parameter")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.set_defaults(func=cmd_local_limit)

    big = sub.add_parser("bigraded", help="bigraded certificates")
    big_sub = big.add_subparsers(dest="subcommand", required=True)
    p = with_json(big_sub.add_parser("check",
                                     help="extremality certificate"))
    p.add_argument("table", help="bigraded table JSON file")
    p.add_argument("--dot", help="write the matching graph as DOT here")
    p.set_defaults(func=cmd_bigraded_check)
    p = with_json(big_sub.add_parser(
        "rays", help="enumerate certified rays with support in a box"))
    p.add_argument("--box", required=True, help="corner, e.g. 3,3")
    p.add_argument("--max-box", type=int, default=None,
                   help="override the enumeration guard")
    p.set_defaults(func=cmd_bigraded_rays)

    p = with_json(sub.add_parser(
        "resolve", help="Betti table of a finite module",
        description="Betti table of a finite module.  A presentation is "
        "scanned once over the box its row and column degrees fix."))
    p.add_argument("module", help="module JSON file")
    p.add_argument("--check", action="store_true",
                   help="also run the extremality certificate")
    p.add_argument("--dot", help="write the matching graph as DOT here")
    p.set_defaults(func=cmd_resolve)

    p = with_json(sub.add_parser("version", help="print the version"))
    p.set_defaults(func=cmd_version)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except BetticoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: missing key {exc} in input file", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
