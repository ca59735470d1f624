"""Command line front end.

Degree sequences and vectors travel as comma-separated values on the
command line; tables and modules travel as JSON files.  Every
subcommand takes --json for machine-readable output on stdout.  Exit
codes: 0 success, 1 domain error (message on stderr, prefixed
"error:"), 2 usage error.  DOT renderings of matching graphs go to the
path given by --dot, never to stdout.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from .bigraded import (bigraded_from_json_obj, bigraded_to_json_obj,
                       check_extremality_certificate, graph_to_dot,
                       integral_bidegree, json_int, json_rational)
from .bs_cone import decompose_graded
from .errors import BetticoneError, NotInConeCandidate
from .es_construct import es_plan, es_ranks, render_plan_text, twist_table
from .local_cone import (LocalBettiVector, is_in_local_cone, limit_degrees,
                         limit_table, local_ray_coefficients)
from .module_engine import bigraded_betti, module_from_json_obj
from .rays import DEFAULT_MAX_BOX, box_ray_codes
from .tables import graded_from_json_obj, hk_pure_table, pure_to_json_obj


def _ints(text, field):
    return [json_int(part, field) for part in text.split(",")]

def _box(text):
    return integral_bidegree(_ints(text, "--box"), "--box")

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

_scalar_json = json.JSONEncoder().encode
_str_json = json.encoder.encode_basestring_ascii
_int_json = int.__repr__


def _key_json(key):
    if isinstance(key, str):
        return _str_json(key)
    if key is None or isinstance(key, (int, float)):
        return _str_json(_scalar_json(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(obj, pad):
    """The bytes of json.dumps(obj, indent=2) for a value at the
    indentation `pad` ("\\n" plus two spaces a level).  Containers are
    recognised by isinstance, as json does, and built by one join each;
    every other value goes through json's C one-line encoder, which
    writes scalars (NaN and the infinities included) as json.dumps
    does and raises TypeError on anything it cannot encode."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            (_str_json(k) if k.__class__ is str else _key_json(k)) + ": "
            + (_int_json(v) if v.__class__ is int
               else _str_json(v) if v.__class__ is str
               else _json_text(v, inner))
            for k, v in obj.items()]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _int_json(v) if v.__class__ is int else _json_text(v, inner)
            for v in obj]) + pad + "]"
    if obj.__class__ is str:
        return _str_json(obj)
    return _scalar_json(obj)


def _print_json(obj):
    print(_json_text(obj, "\n"))

def _write_dot(path, verdict):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph_to_dot(verdict.graph))


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
        _print_json({
            "degrees": list(plan.degrees),
            "gaps": list(plan.gaps),
            "factors": [{"dim": m, "twist_base": base}
                        for m, base in plan.factors],
            "rows": [{"t": row.t, "ambient_degree": -row.t,
                      "twists": list(row.twists),
                      "survivor": bool(row.survivor)}
                     for row in twist_table(plan)],
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
    """decompose_graded attaches a Decomposition at both raise sites."""
    table = graded_from_json_obj(_load_json(args.table))
    try:
        dec = decompose_graded(table)
    except NotInConeCandidate as exc:
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


def _verdict_lines(verdict):
    lines = [verdict.verdict]
    for kind, subject, detail in verdict.failures:
        where = "" if subject is None else f" at {subject}"
        lines.append(f"  {kind}{where}: {detail}")
    return lines


def _verdict_json(verdict):
    return {"verdict": verdict.verdict,
            "failures": [{"kind": kind, "subject": subject, "detail": detail}
                         for kind, subject, detail in verdict.failures]}


def cmd_bigraded_check(args):
    table = bigraded_from_json_obj(_load_json(args.table))
    verdict = check_extremality_certificate(table)
    if args.dot:
        _write_dot(args.dot, verdict)
    if args.json:
        _print_json(_verdict_json(verdict))
    else:
        print("\n".join(_verdict_lines(verdict)))
    return 0


def cmd_bigraded_rays(args):
    box = _box(args.box)
    if args.max_box < 0:
        raise ValueError(
            f"--max-box must be a nonnegative integer, got {args.max_box}")
    codes, entries, swap_count = box_ray_codes(box, max_box=args.max_box)
    if args.json:
        doc = {"box": box, "count": len(codes),
               "count_up_to_swap": swap_count, "rays": [None] if codes else []}
        if not codes:
            _print_json(doc)
            return 0
        # Each ray's text is its frame around its codes' entry texts, in
        # bigraded_to_json_obj's form; the frames are _json_text's own,
        # split at their one null, and each ray's codes are sorted.
        pad = "\n        "
        texts = [_json_text({"i": i, "deg": [a, b], "b": c}, pad)
                 for (i, (a, b)), c in entries]
        head, tail = _json_text({"kind": "bigraded", "entries": [None]},
                                "\n    ").split("null")
        doc_head, doc_tail = _json_text(doc, "\n").split("null")
        join = ("," + pad).join
        print(doc_head + ",\n    ".join([
            head + join(map(texts.__getitem__, key)) + tail
            for key in codes]) + doc_tail)
    else:
        # Every count is 1 (enumerate_box_rays), so no entry reads x{c}.
        words = [f"{i}:({a},{b})" for (i, (a, b)), _ in entries]
        print("\n".join([f"[{k:3d}] " + " ".join(map(words.__getitem__, key))
                         for k, key in enumerate(codes)]
                        + [f"{len(codes)} rays up to scalar "
                           f"({swap_count} after swapping x and y)"]))
    return 0


def cmd_resolve(args):
    module = module_from_json_obj(_load_json(args.module))
    table = bigraded_betti(module)
    verdict = None
    if args.check or args.dot:
        verdict = check_extremality_certificate(table)
    if args.dot:
        _write_dot(args.dot, verdict)
    if args.json:
        obj = bigraded_to_json_obj(table)
        if args.check:
            obj.update(_verdict_json(verdict))
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
        # argparse reads a token that starts with "-" as an option unless
        # it matches this pattern, which by default takes single numbers
        # only; no leaf parser has an option that starts "-<digit>", so a
        # list like -2,0,1 or -1/2,1 is a value in every one of them.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        return p

    def degree_list(p):
        p.add_argument("degrees", help="comma-separated strictly "
                       "increasing integers, e.g. 0,1,3,5")
        return p

    p = degree_list(with_json(sub.add_parser(
        "hk", help="minimal integer table of a pure degree sequence")))
    p.set_defaults(func=cmd_hk)

    p = degree_list(with_json(sub.add_parser(
        "es-plan", help="twist bookkeeping for the pure resolution "
        "construction")))
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
    p.add_argument("--max-box", type=int, default=DEFAULT_MAX_BOX,
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


@functools.cache
def _parser():
    """The parser, built on the first run and reused by later runs in
    the same process; parse_args keeps no state between calls."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`), which is no input error.
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KeyError as exc:
        print(f"error: missing key {exc} in input file", file=sys.stderr)
        return 1
    except (BetticoneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
