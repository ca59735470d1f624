"""Tests of the benchmark itself.

    python3 bench/selftest.py

Kept out of the package's pytest run (the file name does not match
test_*.py) because it resolves real modules and takes several seconds.
"""

import json
import unittest

import run
import speed
import tracer
import workloads


def _inputs_key(workload, inputs):
    if workload.name == "resolve":
        return [(pm.row_degrees, pm.col_degrees, pm.scalars)
                for pm in inputs]
    if workload.name == "graded":
        return [(sorted(g.table.entries.items()), g.chain, g.perturbed,
                 g.limit) for g in inputs]
    return list(inputs)


class CorruptBetti(workloads.Resolve):
    """Resolve with one Betti entry of the first output bumped by one."""

    def op(self, lib, pm):
        out = super().op(lib, pm)
        if pm is self.first and out["table"]:
            key = min(out["table"])
            out["table"][key] += 1
        return out


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = run.import_package()

    def test_generators_are_deterministic_per_seed(self):
        for workload in workloads.WORKLOADS.values():
            a = _inputs_key(workload, workload.generate(7, self.lib))
            b = _inputs_key(workload, workload.generate(7, self.lib))
            self.assertEqual(a, b, workload.name)
            if workload.name != "rays":
                c = _inputs_key(workload, workload.generate(8, self.lib))
                self.assertNotEqual(a, c, workload.name)

    def test_corrupted_betti_entry_counts_as_failed(self):
        workload = CorruptBetti()
        coker = self.lib.module_engine.coker_presentation
        inputs = [pm for pm in workload.generate(3, self.lib)
                  if pm.col_degrees and coker(pm).dims][:10]
        workload.first = inputs[0]
        checker = run.measure(workload, self.lib, inputs, 0)[0]
        self.assertEqual(checker.attempted, 10)
        self.assertEqual(checker.failed, 1)
        clean = run.measure(workloads.WORKLOADS["resolve"], self.lib,
                            inputs, 0)[0]
        self.assertEqual(clean.failed, 0)

    def test_corrupted_ray_counts_as_failed(self):
        rays = workloads.WORKLOADS["rays"]
        boxes = ((5, 3), (3, 5))
        out = rays.op(self.lib, boxes)
        self.assertEqual(rays.check(self.lib, boxes, out), [])
        obj = json.loads(out[0][2])
        obj["rays"][0]["entries"][0]["b"] += 1
        out[0] = (out[0][0], out[0][1], json.dumps(obj))
        self.assertTrue(rays.check(self.lib, boxes, out))

    def test_traced_outputs_match_and_counts_repeat(self):
        for name, inputs in (
                ("resolve", workloads.WORKLOADS["resolve"]
                 .generate(5, self.lib)[:30]),
                ("graded", workloads.WORKLOADS["graded"]
                 .generate(5, self.lib)[:100])):
            workload = workloads.WORKLOADS[name]
            runs = [run.per_layer(workload, self.lib, inputs, "selftest", 0)
                    for _ in range(2)]
            for checker, _, _, problems in runs:
                self.assertEqual(checker.failed, 0, checker.problems)
                self.assertEqual(problems, [])
            counts = [{k: v for k, (v, unit) in metrics.items()
                       if unit == "count"} for _, metrics, _, _ in runs]
            self.assertEqual(counts[0], counts[1], name)
            self.assertTrue(any(counts[0].values()), name)

    def test_box_four_candidates(self):
        _, metrics, _, problems = run.per_layer(
            workloads.WORKLOADS["rays"], self.lib, [((4, 4),)], "selftest", 0)
        self.assertEqual(problems, [])
        self.assertEqual(metrics["bigraded.candidates"][0], 3323)
        self.assertEqual(metrics["bigraded.pairs"][0], 251 ** 2)
        self.assertEqual(metrics["module_engine.bigraded_betti_calls"][0],
                         3074)
        self.assertAlmostEqual(metrics["bigraded.useful_frac"][0],
                               441 / 3074)

    def test_missing_function_is_absent(self):
        tr = tracer.Tracer(names=("no_such_function", "rref"))
        tr.install()
        try:
            self.lib.module_engine.bigraded_betti(
                self.lib.module_engine.monomial_quotient(
                    self.lib.module_engine.MonomialPair(
                        [(0, 0)], [(2, 0), (1, 1), (0, 2)])))
        finally:
            tr.uninstall()
        self.assertEqual(tr.absent, ["no_such_function"])
        summary = tracer.summarize(tr.names, tr.take_spans())
        self.assertEqual(summary["no_such_function"]["calls"], 0)
        self.assertGreater(summary["rref"]["calls"], 0)

    def test_scaled_time(self):
        meter = speed.Meter()
        ref = speed.REF_PROBE_S
        # Probes at 1.0 and 3.0 (0.1 s each) on a machine at half and
        # quarter the reference speed.
        meter.starts, meter.ends = [1.0, 3.0], [1.1, 3.1]
        meter.probes = [2 * ref, 4 * ref]
        meter._finish()
        # One probe inside: 0.1 s of the interval was the probe.
        self.assertAlmostEqual(meter.scaled(0.5, 2.5), 1.9 * 0.5)
        # Both inside: the mean speed of the two.
        self.assertAlmostEqual(meter.scaled(0.0, 4.0), 3.8 * 0.375)
        # None inside: the probes just before and just after.
        self.assertAlmostEqual(meter.scaled(2.0, 2.4), 0.4 * 0.375)
        self.assertAlmostEqual(meter.scaled(3.5, 4.0), 0.5 * 0.25)


if __name__ == "__main__":
    unittest.main()
