"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import metrics as M

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class PercentileRule(unittest.TestCase):

    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(M.nearest_rank(xs, 50), 5)
        self.assertEqual(M.nearest_rank(xs, 90), 9)
        self.assertEqual(M.nearest_rank(xs, 100), 10)
        self.assertEqual(M.nearest_rank(xs, 0), 1)
        self.assertEqual(M.nearest_rank([3.0, 1.0, 2.0], 50), 2.0)

    def test_samples_beyond(self):
        self.assertEqual(M.beyond(100, 90), 10)
        self.assertEqual(M.beyond(99, 90), 9)
        self.assertEqual(M.beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(M.tail_percentile(list(range(19))))
        self.assertEqual(M.tail_percentile(list(range(20)))[0], 50)
        self.assertEqual(M.tail_percentile(list(range(39)))[0], 50)
        self.assertEqual(M.tail_percentile(list(range(40)))[0], 75)
        self.assertEqual(M.tail_percentile(list(range(99)))[0], 75)
        self.assertEqual(M.tail_percentile(list(range(100))), (90, 89))
        self.assertEqual(M.tail_percentile(list(range(1000)))[0], 99)
        self.assertEqual(M.tail_percentile(list(range(10000)))[0], 99.9)


class SpanAlgebra(unittest.TestCase):

    def test_union_of_overlapping_intervals(self):
        self.assertEqual(M.union_length([]), 0.0)
        self.assertEqual(M.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(M.union_length([(0, 10), (2, 3), (10, 12)]), 12)
        self.assertEqual(M.union_length([(5, 5), (7, 6)]), 0.0)

    def test_self_time_with_overlapping_jobs(self):
        # jobs overlap each other and stick out on both sides of the request
        jobs = [(10, 40), (30, 60), (90, 120), (-5, 5)]
        self.assertEqual(M.self_time((0, 100), jobs), 100 - (50 + 10 + 5))

    def test_self_time_without_jobs_or_outside_jobs(self):
        self.assertEqual(M.self_time((0, 100), []), 100)
        self.assertEqual(M.self_time((0, 100), [(200, 300)]), 100)
        self.assertEqual(M.self_time((0, 100), [(0, 100), (20, 30)]), 0)


class MetricNames(unittest.TestCase):

    def test_validity_rule(self):
        for ok in ("qps", "request_ms_p50", "spark.jobs_per_request", "a-b.c_d", "9x"):
            self.assertTrue(M.valid_metric_name(ok), ok)
        for bad in ("", "_x", ".x", "a b", "x/y", "x" * 65, "µs"):
            self.assertFalse(M.valid_metric_name(bad), bad)

    def test_declared_metrics_are_valid_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(M.valid_metric_name(m["name"]), m["name"])
            self.assertTrue(M.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


def request(i, engine, ms, start, traced=False, ok=True, batch=0, queries=50):
    return {"id": i, "engine": engine, "batch": batch, "queries": queries, "ms": ms,
            "start_ms": start, "end_ms": start + ms, "traced": traced, "ok": ok}


class DerivedMetrics(unittest.TestCase):

    def raw(self, requests, engines):
        return {"requests": requests, "engines": engines, "loop_ms": 2000.0,
                "quality": {e: {"recall": 0.9, "overall_ratio": 1.01} for e in engines},
                "setup_s": [3.0, 1.0, 2.0, 1.5], "index_bytes": 3 * 2 ** 20}

    def test_end_to_end_single_engine(self):
        reqs = [request(i, "PM-LSH", ms, 100 * i) for i, ms in enumerate([10, 30, 20])]
        reqs.append(request(9, "PM-LSH", 99, 900, ok=False))
        m, info = M.end_to_end(self.raw(reqs, ["PM-LSH"]))
        self.assertAlmostEqual(m["request_ms_p50"], 20)
        self.assertAlmostEqual(m["qps"], 150 / 2.0)
        self.assertAlmostEqual(m["setup_s"], 1.75)
        self.assertAlmostEqual(m["index_mb"], 3.0)
        self.assertEqual((info["attempted_queries"], info["failed_queries"]), (200, 50))
        self.assertAlmostEqual(info["failed_frac"], 0.25)

    def test_end_to_end_engine_mix_is_geometric_mean_of_medians(self):
        reqs = [request(0, "A", 100, 0), request(1, "B", 400, 0), request(2, "A", 100, 0)]
        m, info = M.end_to_end(self.raw(reqs, ["A", "B"]))
        self.assertAlmostEqual(m["request_ms_p50"], 200)
        self.assertEqual(info["engine_samples"], {"A": 2, "B": 1})

    def test_per_layer_attribution(self):
        reqs = [request(1, "PM-LSH", 100, 1000, traced=True),
                request(2, "PM-LSH", 90, 2000, traced=False)]
        jobs = [{"tag": "request-1", "job": 0, "start_ms": 1010, "end_ms": 1050},
                {"tag": "request-1", "job": 1, "start_ms": 1040, "end_ms": 1080},
                {"tag": "build-1", "job": 2, "start_ms": 0, "end_ms": 10}]

        def task(tag, job, run):
            return {"tag": tag, "job": job, "stage": job, "start_ms": 1020, "end_ms": 1030,
                    "wait_ms": 2, "run_ms": run, "deserialize_ms": 1, "gc_ms": 0,
                    "result_bytes": 500}
        tasks = [task("request-1", 0, 5), task("request-1", 1, 7), task("build-1", 2, 40)]
        raw = self.raw(reqs, ["PM-LSH"])
        raw["counts"] = {"rangelsh.rounds_per_query": 1.0}
        raw["trace"] = {"jobs": jobs, "tasks": tasks, "replay_spans": [],
                        "layers": {"spark.empty_job_ms": 3.0}}
        m, info = M.per_layer(raw)
        self.assertEqual(m["spark.jobs_per_request"], 2)
        self.assertEqual(m["spark.tasks_per_request"], 2)
        self.assertEqual(m["spark.job_ms_per_request"], 80)
        self.assertEqual(m["spark.task_run_ms_per_request"], 12)
        self.assertEqual(m["spark.result_bytes_per_query"], 1000 / 50)
        self.assertEqual(m["spark.build_task_run_ms"], 40)
        self.assertEqual(m["rangelsh.driver_self_ms_per_request"], 100 - 70)
        self.assertEqual(m["trace.overhead_ms_per_request"], 10)
        self.assertAlmostEqual(info["job_share"], 0.7)
        self.assertEqual(m["spark.empty_job_ms"], 3.0)
        spans = M.trace_spans(raw)
        self.assertEqual([s["name"] for s in spans],
                         ["request", "spark.job", "spark.job", "spark.task", "spark.task"])
        self.assertTrue(all(s["parent"] == "request-1" for s in spans if s["name"] == "spark.job"))
        self.assertFalse(any(math.isnan(v) for v in m.values()))


if __name__ == "__main__":
    unittest.main()
