"""Unit tests of the benchmark's arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402


def span(id, name, ts, dur, parent=-1, case=0):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": id, "parent": parent, "case": case}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(samples, 0.5), 50)
        self.assertEqual(metrics.percentile(samples, 0.9), 90)
        self.assertEqual(metrics.percentile(samples, 1.0), 100)
        self.assertEqual(metrics.percentile([7], 0.5), 7)
        self.assertEqual(metrics.percentile([3, 1, 2], 0.5), 2)

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples: p90 has exactly ten beyond it, p95 only five.
        self.assertEqual(metrics.tail_percentile(list(range(1, 101))),
                         (0.9, 90))
        # 99 samples: nine beyond p90, so no tail percentile qualifies.
        self.assertIsNone(metrics.tail_percentile(list(range(1, 100))))
        # 200 samples reach p95; 1000 reach p99.
        self.assertEqual(metrics.tail_percentile(list(range(1, 201))),
                         (0.95, 190))
        self.assertEqual(metrics.tail_percentile(list(range(1, 1001))),
                         (0.99, 990))
        self.assertIsNone(metrics.tail_percentile([1.0] * 10))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(metrics.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(metrics.geomean([5]), 5.0)
        self.assertAlmostEqual(metrics.geomean([1, 10, 100]), 10.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            metrics.geomean([1, 0])
        with self.assertRaises(ValueError):
            metrics.geomean([])


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        events = [
            span(0, "bench.case", 0, 100),
            span(1, "driver.optimizeDeviceModule", 10, 50, parent=0),
            span(2, "core.openmp-opt", 10, 20, parent=1),
            span(3, "analysis.omp-lint", 30, 10, parent=1),
            span(4, "gpusim.launchKernel", 70, 25, parent=0),
        ]
        selfs = metrics.self_times(events)
        self.assertEqual(selfs[0], 100 - 50 - 25)
        self.assertEqual(selfs[1], 50 - 20 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 25)

    def test_overlapping_and_overhanging_children(self):
        events = [
            span(0, "p", 0, 10),
            span(1, "a", 2, 4, parent=0),   # [2, 6]
            span(2, "b", 4, 4, parent=0),   # [4, 8] overlaps a
            span(3, "c", 9, 5, parent=0),   # [9, 14] runs past the parent
        ]
        # Covered: [2, 8] and [9, 10] -> 7.
        self.assertEqual(metrics.self_times(events)[0], 3)

    def test_coverage(self):
        events = [
            span(0, "bench.case", 0, 100),
            span(1, "gpusim.launchKernel", 0, 96, parent=0),
            span(2, "bench.case", 100, 100, case=1),
            span(3, "gpusim.launchKernel", 100, 98, parent=2, case=1),
        ]
        table = metrics.SpanTable(events)
        self.assertAlmostEqual(metrics.span_coverage(table), 0.97)
        self.assertAlmostEqual(table.mean_self_ms("gpusim.launchKernel"),
                               0.097)
        self.assertEqual(table.layer_self_ms()["bench"], 6 / 1e3)


class FailedFracTest(unittest.TestCase):
    def test_counts_against_attempted(self):
        cases = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
        self.assertEqual(metrics.failed_frac(cases), 0.5)
        self.assertEqual(metrics.failed_frac([{"ok": True}]), 0.0)
        with self.assertRaises(ValueError):
            metrics.failed_frac([])


class DeterminismTest(unittest.TestCase):
    def case(self, key, p, **counters):
        return {"key": key, "pass": p, "counters": counters}

    def test_repeats_pass(self):
        cases = [self.case("a", 0, x=1, y=2), self.case("a", 1, x=1, y=2),
                 self.case("b", 0, x=5)]
        drift, merged = metrics.determinism_drift(cases)
        self.assertEqual(drift, [])
        self.assertEqual(merged, {"a": {"x": 1, "y": 2}, "b": {"x": 5}})

    def test_drift_within_run_is_reported(self):
        cases = [self.case("a", 0, x=1), self.case("a", 1, x=2)]
        drift, _ = metrics.determinism_drift(cases)
        self.assertEqual(len(drift), 1)
        self.assertIn("a (pass 1): x 2 != 1", drift[0])

    def test_drift_against_previous_run(self):
        drift, _ = metrics.determinism_drift([self.case("a", 0, x=1.5)],
                                             {"a": {"x": 1.25}})
        self.assertEqual(len(drift), 1)

    def test_counters_only_in_traced_passes_are_kept(self):
        # An untraced case lacks the traced-only counters; the traced one
        # adds them and a later traced pass is checked against them.
        cases = [self.case("a", 0, x=1), self.case("a", 1, x=1, ir=7),
                 self.case("a", 2, x=1, ir=8)]
        drift, _ = metrics.determinism_drift(cases)
        self.assertEqual(len(drift), 1)
        self.assertIn("ir 8 != 7", drift[0])


class MetricsTest(unittest.TestCase):
    def record(self):
        def case(key, p, wall):
            return {"key": key, "pass": p, "traced": False, "wall_ms": wall,
                    "compile_ms": wall / 10, "launch_ms": wall / 2,
                    "iterations": 0, "ok": True, "reason": "",
                    "counters": {"gpusim.dyn_insts": 1000,
                                 "gpusim.total_cycles": 8}}
        # Pass 1 ran under interference: every case took longer.
        cases = [case("a", 0, 10), case("b", 0, 20), case("c", 0, 30),
                 case("a", 1, 15), case("b", 1, 24), case("c", 1, 90)]
        return {"workload": "proxy-ladder", "setup_s": [0.3, 0.1, 0.2],
                "peak_rss_kb": 2048,
                "passes": [{"traced": False, "wall_s": 0.06},
                           {"traced": False, "wall_s": 0.13}],
                "cases": cases}

    def test_fastest_pass_per_case(self):
        best = metrics.fastest(self.record()["cases"], "wall_ms")
        self.assertEqual(best, {"a": 10, "b": 20, "c": 30})

    def test_end_to_end(self):
        values, extra = metrics.end_to_end(self.record())
        self.assertEqual(list(values), list(metrics.END_TO_END))
        self.assertAlmostEqual(values["throughput"], 3 / 0.06)
        self.assertEqual(values["case_ms_p50"], 20)
        self.assertEqual(values["compile_ms_p50"], 2)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(extra["failed_frac"], 0.0)
        self.assertAlmostEqual(extra["sim_cycles"], 8)
        # 3000 instructions over 30 ms of fastest launches.
        self.assertAlmostEqual(extra["sim_minst_per_s"], 0.1)
        self.assertNotIn("case_ms_p90", extra)  # only six samples

    def test_cg_throughput_counts_iterations(self):
        record = self.record()
        record["workload"] = metrics.CG
        for c in record["cases"]:
            c["iterations"] = 10
        self.assertAlmostEqual(metrics.throughput(record, traced=False),
                               30 / 0.06)


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_every_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "..",
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
