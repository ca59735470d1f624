"""Benchmark for the betticone package: one workload per process.

    python3 bench/run.py --workload rays|resolve|graded --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src`` directory.  The run sets up (imports the package and builds the
seeded inputs) several times and reports the median as ``setup_s``.
It then makes whole passes over the input set, one operation after the
other (a closed loop with one caller), as long as another pass fits in
``--seconds``.  ``pass_s`` is the median pass.  Each operation is timed
alone, and an input's latency is its median over the passes;
``op_p50_ms`` and ``op_tail_ms`` are taken over those.  Outputs are
checked outside the timed region, fully on the first pass and by
comparison with the first pass afterwards.

Every reported time is in seconds at a fixed reference speed of the
machine, measured by a probe between the program's own steps (see
``speed.py``); the report also prints the raw wall-clock medians.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics derived from the traced passes' spans; the
spans of the first traced pass are written under ``bench/out/``.

A readable report goes to stdout first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
MODULES = ("cli", "bigraded", "module_engine", "bs_cone", "tables",
           "local_cone", "es_construct", "errors")


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def import_package():
    """Import betticone afresh from SRC; returns its modules by name."""
    if not (SRC / "betticone" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'betticone'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "betticone" or n.startswith("betticone.")]:
        del sys.modules[name]
    pkg = importlib.import_module("betticone")
    if Path(pkg.__file__).resolve().parent != SRC / "betticone":
        raise SetupError(f"betticone was imported from {pkg.__file__}")
    return SimpleNamespace(**{name: importlib.import_module(
        f"betticone.{name}") for name in MODULES})


def setup(workload, seed):
    """Import and generate SETUP_REPEATS times; keep the last result.
    Returns it with the median set-up time, scaled and wall-clock."""
    spans = []
    with speed.Meter() as meter:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lib = import_package()
            inputs = workload.generate(seed, lib)
            spans.append((start, time.perf_counter()))
    return lib, inputs, (statistics.median(meter.scaled(a, b)
                                           for a, b in spans),
                         statistics.median(b - a for a, b in spans))


def one_pass(workload, lib, inputs):
    """Run every input once; returns outputs, the ops' start and end
    times (a flat array of pairs, kept small so that memory does not
    grow with the number of passes) and the pass's (start, end), all
    perf_counter readings."""
    outputs = []
    ops = array("d")
    clock = time.perf_counter
    pass_start = clock()
    for inp in inputs:
        start = clock()
        try:
            out = workload.op(lib, inp)
        except Exception as exc:  # an unexpected error is a failed op
            out = workloads.Failure(exc)
        ops.extend((start, clock()))
        outputs.append(out)
    return outputs, ops, (pass_start, clock())


class Checker:
    """Checks a pass's outputs: fully the first time, then against the
    first pass's outputs, which must repeat exactly."""

    def __init__(self, workload, lib, inputs):
        self.workload = workload
        self.lib = lib
        self.inputs = inputs
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _canon(self, out):
        if isinstance(out, workloads.Failure):
            return out.canon()
        return self.workload.canon(out)

    def check(self, outputs):
        canon = [self._canon(out) for out in outputs]
        for k, (inp, out) in enumerate(zip(self.inputs, outputs)):
            self.attempted += 1
            if isinstance(out, workloads.Failure):
                problems = [out.text]
            elif self.reference is None:
                problems = self.workload.check(self.lib, inp, out)
            elif canon[k] != self.reference[k]:
                problems = ["output differs from the first pass"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems.append(f"input {k}: " + "; ".join(problems))
        if self.reference is None:
            self.reference = canon


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples.  Returns (value, label)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    level = (n - 10) / n
    return ordered[math.ceil(level * n) - 1], f"p{100 * level:g} of {n}"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, lib, inputs, seconds):
    """Untraced passes for `seconds`.  Returns the checker, the scaled
    pass times, each input's median scaled latency over the passes,
    the wall-clock pass times and the speed meter."""
    checker = Checker(workload, lib, inputs)
    passes = []
    ops = []
    deadline = time.perf_counter() + seconds
    with speed.Meter() as meter:
        while not passes or (time.perf_counter() + passes[-1][1]
                             - passes[-1][0] < deadline):
            outputs, op_spans, pass_span = one_pass(workload, lib, inputs)
            checker.check(outputs)
            passes.append(pass_span)
            ops.append(op_spans)
    latencies = [statistics.median(meter.scaled(op[k], op[k + 1])
                                   for op in ops)
                 for k in range(0, 2 * len(inputs), 2)]
    return (checker, [meter.scaled(a, b) for a, b in passes], latencies,
            [b - a for a, b in passes], meter)


def end_to_end(workload, lib, inputs, setup_s, seconds):
    checker, passes, latencies, wall, meter = measure(
        workload, lib, inputs, seconds)
    tail_s, tail_label = tail(latencies)
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"passes {len(passes)}, ops per pass {len(inputs)}",
             "times are seconds at the reference speed; wall-clock "
             f"medians: setup {setup_s[1]:.6g} s, pass "
             f"{statistics.median(wall):.6g} s",
             meter.summary(),
             f"setup_s is the median of {SETUP_REPEATS} set-ups",
             "op latencies are per-input medians over the passes; "
             f"op_tail_ms is the {tail_label}",
             f"failed_frac {checker.failed / checker.attempted:g} "
             f"({checker.failed}/{checker.attempted})"]
    return checker, metrics, notes


# Per-layer metrics: (name, kind, value from (summary, extras)).  A
# "share" is seconds spent in a layer during a traced pass divided by
# that pass's time, so a layer a workload never calls reads 0 as a
# ratio; the seconds are printed in the report.
def _t(name, key="total"):
    return lambda s, x: s[name][key]


def _n(name):
    return lambda s, x: s[name]["calls"]


def _frac(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    ("bigraded.enumerate_self_share", "share",
     _t("enumerate_box_rays", "self")),
    ("bigraded.pairs", "count", lambda s, x: x.get("pairs", 0)),
    ("bigraded.candidates", "count", _n("monomial_quotient")),
    ("bigraded.screen_pass_frac", "ratio", lambda s, x: _frac(
        s["monomial_quotient"]["calls"], x.get("pairs", 0))),
    ("bigraded.certificate_share", "share",
     _t("check_extremality_certificate")),
    ("bigraded.certificate_calls", "count",
     _n("check_extremality_certificate")),
    ("bigraded.matching_graph_share", "share", _t("matching_graph")),
    ("bigraded.certified_frac", "ratio", lambda s, x: _frac(
        s["check_extremality_certificate"]["outcomes"]["ExtremalByClaim3"],
        s["check_extremality_certificate"]["calls"])),
    ("bigraded.useful_frac", "ratio", lambda s, x: _frac(
        x.get("rays", 0), s["bigraded_betti"]["calls"])),
    ("module_engine.monomial_quotient_share", "share",
     _t("monomial_quotient")),
    ("module_engine.not_finite_frac", "ratio", lambda s, x: _frac(
        s["monomial_quotient"]["outcomes"]["NotFiniteLength"],
        s["monomial_quotient"]["calls"])),
    ("module_engine.bigraded_betti_share", "share", _t("bigraded_betti")),
    ("module_engine.bigraded_betti_calls", "count", _n("bigraded_betti")),
    ("module_engine.coker_presentation_share", "share",
     _t("coker_presentation")),
    ("module_engine.kernel_generator_degrees_share", "share",
     _t("kernel_generator_degrees")),
    ("module_engine.generic_rank_share", "share", _t("generic_rank")),
    ("module_engine.dual_module_share", "share", _t("dual_module")),
    ("linalg.rref_calls", "count", _n("rref")),
    ("linalg.rref_share", "share", _t("rref")),
    ("linalg.rref_cells", "count", lambda s, x: s["rref"]["size"]),
    ("linalg.nullspace_calls", "count", _n("nullspace_basis")),
    ("linalg.pivot_rows_calls", "count", _n("column_space_pivot_rows")),
    ("bs_cone.decompose_self_share", "share",
     _t("decompose_graded", "self")),
    ("bs_cone.parts", "count", lambda s, x: x.get("parts", 0)),
    ("tables.hk_pure_table_share", "share", _t("hk_pure_table")),
    ("tables.check_hk_equations_share", "share", _t("check_hk_equations")),
    ("tables.numerator_share", "share", lambda s, x: (
        s["hilbert_numerator"]["total"]
        + s["is_finite_length_numerator"]["total"])),
    ("es_construct.share", "share", lambda s, x: (
        s["es_plan"]["total"] + s["es_ranks"]["total"])),
    ("local_cone.share", "share", lambda s, x: (
        s["local_from_graded"]["total"] + s["is_in_local_cone"]["total"]
        + s["limit_table"]["total"])),
    ("cli.self_share", "share", _t("run", "self")),
)


def write_spans(workload, seed, names, spans):
    """Spans as [name, start, end, parent, outcome, size], times in
    seconds from the first span's start."""
    OUT.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    path = OUT / f"spans-{workload.name}-{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": list(names),
                   "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, o, z]
                             for n, s, e, p, o, z in spans]},
                  handle, separators=(",", ":"))
    return path


def per_layer(workload, lib, inputs, seed, seconds):
    """Alternate untraced and traced passes for `seconds`.  Shares are
    wall-clock span time over wall-clock pass time; the pass times
    reported are scaled to the reference speed."""
    tr = tracer.Tracer()
    checker = Checker(workload, lib, inputs)
    plain, traced, summaries = [], [], []
    first_spans = None
    repeat_problems = []
    deadline = time.perf_counter() + seconds
    with speed.Meter() as meter:
        while not traced or (time.perf_counter() + plain[-1][1]
                             - plain[-1][0] + traced[-1][1] - traced[-1][0]
                             < deadline):
            outputs, _, pass_span = one_pass(workload, lib, inputs)
            checker.check(outputs)
            plain.append(pass_span)
            tr.install()
            try:
                outputs, _, pass_span = one_pass(workload, lib, inputs)
            finally:
                tr.uninstall()
            spans = tr.take_spans()
            checker.check(outputs)
            traced.append(pass_span)
            summary = tracer.summarize(tr.names, spans)
            extras = workload.extras(inputs, outputs)
            if summaries and (tracer.counts_of(summary) != tracer.counts_of(
                    summaries[0][0]) or extras != summaries[0][1]):
                repeat_problems.append(f"traced pass {len(summaries) + 1}: "
                                       "counts differ from the first")
            summaries.append((summary, extras))
            if first_spans is None:
                first_spans = spans
    traced_wall = [b - a for a, b in traced]
    plain = [meter.scaled(a, b) for a, b in plain]
    traced = [meter.scaled(a, b) for a, b in traced]
    path = write_spans(workload, seed, tr.names, first_spans)
    metrics = {}
    seconds_notes = []
    for name, kind, value in PER_LAYER:
        values = [value(s, x) for s, x in summaries]
        if kind == "share":
            seconds_notes.append(f"{name.removesuffix('share')}s "
                                 f"{statistics.median(values):.6g} s")
            values = [v / t for v, t in zip(values, traced_wall)]
            metrics[name] = (statistics.median(values), "ratio")
        else:
            metrics[name] = (values[0], kind)
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    notes = [f"passes {len(plain)} untraced, {len(traced)} traced; "
             f"ops per pass {len(inputs)}",
             f"spans of the first traced pass: {len(first_spans)} in {path}",
             "wall-clock seconds per traced pass (median) behind each "
             "share:"]
    notes += seconds_notes
    if tr.absent:
        notes.append("absent functions: " + ", ".join(tr.absent))
    return checker, metrics, notes, repeat_problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        lib, inputs, setup_s = setup(workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        checker, metrics, notes, problems = per_layer(
            workload, lib, inputs, args.seed, args.seconds)
    else:
        checker, metrics, notes = end_to_end(
            workload, lib, inputs, setup_s, args.seconds)
        problems = []
    print(f"workload {workload.name}, seed {args.seed}, python "
          f"{sys.version.split()[0]}, nproc {os.cpu_count()}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in (checker.problems + problems)[:20]:
        print("FAILED " + line)
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
