"""Tests of run.py's pure helpers: the result shape, CPU choice and steal
parsing.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "core.query_knn_us", "unit": "us", "better": "lower"}],
}


def raw(metrics, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "problems": []}


class ShapeTest(unittest.TestCase):
    def test_exact_metrics_pass_in_spec_order(self):
        out = run.shape(raw({"queries_per_s": (100.5, "1/s"), "setup_s": (0.8, "s")}),
                        SPEC, trace=0)
        self.assertEqual(list(out), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(out["metrics"]), ["setup_s", "queries_per_s"])
        self.assertEqual(out["metrics"]["setup_s"], {"value": 0.8, "unit": "s"})
        self.assertTrue(out["correct"])
        json.dumps(out)

    def test_trace_mode_uses_per_layer_metrics(self):
        out = run.shape(raw({"core.query_knn_us": (14.0, "us")}), SPEC, trace=1)
        self.assertEqual(list(out["metrics"]), ["core.query_knn_us"])

    def test_missing_extra_or_misunited_metrics_fail(self):
        with self.assertRaises(run.BenchError):
            run.shape(raw({"setup_s": (0.8, "s")}), SPEC, trace=0)
        with self.assertRaises(run.BenchError):
            run.shape(raw({"setup_s": (0.8, "s"), "queries_per_s": (1.0, "1/s"),
                           "extra": (1.0, "s")}), SPEC, trace=0)
        with self.assertRaises(run.BenchError):
            run.shape(raw({"setup_s": (0.8, "ms"), "queries_per_s": (1.0, "1/s")}),
                      SPEC, trace=0)

    def test_failures_make_the_run_incorrect(self):
        out = run.shape(raw({"setup_s": (0.8, "s"), "queries_per_s": (1.0, "1/s")},
                            failed=1), SPEC, trace=0)
        self.assertFalse(out["correct"])
        with self.assertRaises(run.BenchError):
            run.shape(raw({"setup_s": (0.8, "s"), "queries_per_s": (1.0, "1/s")},
                          attempted=0), SPEC, trace=0)

    def test_benchmark_json_names_every_runner_layer_metric(self):
        root = Path(__file__).resolve().parent.parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        source = (root / "perfbench" / "runner" / "main.cc").read_text()
        for m in spec["per_layer"]:
            self.assertIn('{"%s", "%s"}' % (m["name"], m["unit"]), source)


class HelperTest(unittest.TestCase):
    def test_pick_cpu_is_the_highest_allowed(self):
        self.assertEqual(run.pick_cpu({0, 1, 2, 3}), 3)
        self.assertEqual(run.pick_cpu({5, 1}), 5)
        with self.assertRaises(run.BenchError):
            run.pick_cpu(set())

    def test_steal_ticks(self):
        stat = ("cpu  10 0 5 100 0 0 0 42 0 0\n"
                "cpu0 5 0 2 50 0 0 0 20 0 0\n"
                "cpu1 5 0 3 50 0 0 0 22 0 0\n"
                "intr 1 2 3\n")
        self.assertEqual(run.steal_ticks(stat, 1), (22, 42))
        self.assertEqual(run.steal_ticks(stat, 7), (None, 42))


if __name__ == "__main__":
    unittest.main()
