"""Span tracing for the benchmark's traced runs.

The tracer wraps named package functions from outside: every loaded
``betticone.*`` module attribute that is one of those functions is
replaced by a wrapper for the length of one traced pass and restored
afterwards.  Looking functions up by name in every loaded module (not
in one fixed module) keeps the trace working when a function moves or
is imported lazily by another module; a name that is not found is
reported as absent.

Each call becomes one span (name, start, end, parent, outcome, size)
kept in memory.  Self time is a span's duration minus its children's
durations; calls nest on one thread, so children never overlap.
"""

import functools
import sys
import time
from collections import Counter

# Package functions the per-layer metrics are built from.
TRACED = (
    "run",
    "enumerate_box_rays", "check_extremality_certificate", "matching_graph",
    "monomial_quotient", "bigraded_betti", "coker_presentation",
    "kernel_generator_degrees", "generic_rank", "dual_module",
    "rref", "nullspace_basis", "column_space_pivot_rows",
    "decompose_graded", "hk_pure_table", "check_hk_equations",
    "hilbert_numerator", "is_finite_length_numerator",
    "es_plan", "es_ranks",
    "local_from_graded", "is_in_local_cone", "limit_table",
)


def _matrix_cells(m, *args, **kwargs):
    return len(m) * len(m[0]) if m else 0


# Work size recorded per call, from the call's arguments.
SIZES = {"rref": _matrix_cells}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "betticone" or name.startswith("betticone."))]


class Tracer:
    """Installs wrappers, records spans, and sums them per name."""

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans = []
        self._stack = []
        self._installed = []
        self.absent = []

    def install(self):
        modules = _package_modules()
        self.absent = []
        for name_id, name in enumerate(self.names):
            originals = {id(f): f for m in modules
                         for f in [getattr(m, name, None)]
                         if callable(f) and getattr(f, "__module__", "")
                         .startswith("betticone")}
            if not originals:
                self.absent.append(name)
                continue
            wrappers = {key: self._wrap(name_id, f, SIZES.get(name))
                        for key, f in originals.items()}
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if id(value) in wrappers and value is originals[id(value)]:
                        setattr(m, attr, wrappers[id(value)])
                        self._installed.append((m, attr, value))

    def uninstall(self):
        for m, attr, value in reversed(self._installed):
            setattr(m, attr, value)
        self._installed = []

    def take_spans(self):
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def _wrap(self, name_id, fn, size_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            size = size_fn(*args, **kwargs) if size_fn else 0
            outcome = "ok"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                verdict = getattr(result, "verdict", None)
                if isinstance(verdict, str):
                    outcome = verdict
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, outcome, size)
        return wrapper


def summarize(names, spans):
    """Per name: calls, total and self seconds, outcomes, size sum."""
    child = [0.0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "total": 0.0, "self": 0.0,
                  "outcomes": Counter(), "size": 0} for name in names}
    for k, (name_id, start, end, _, outcome, size) in enumerate(spans):
        rec = out[names[name_id]]
        rec["calls"] += 1
        rec["total"] += end - start
        rec["self"] += end - start - child[k]
        rec["outcomes"][outcome] += 1
        rec["size"] += size
    return out


def counts_of(summary):
    """The parts of a summary that must repeat exactly between passes."""
    return {name: (rec["calls"], dict(rec["outcomes"]), rec["size"])
            for name, rec in summary.items()}
