#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py.

Covers the --scaling gate (simulator events/s must stay within 2x of the
1000-job row as job count grows) and the median preference of collect() for
reports run with --benchmark_repetitions. Reports are synthetic and written
to a tempdir, so the test never depends on the committed bench/results/.

Registered in ctest as `test_bench_compare`. Run directly:
python3 tests/test_bench_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "bench_compare.py")
sys.path.insert(0, os.path.join(REPO, "tools"))
import bench_compare  # noqa: E402


def row(name, events_per_sec, real_time=100.0, **extra):
    return dict({"name": name, "run_name": name, "run_type": "iteration",
                 "real_time": real_time, "time_unit": "ms",
                 "events_per_sec": events_per_sec}, **extra)


def median(name, events_per_sec, real_time=100.0):
    return {"name": f"{name}_median", "run_name": name, "run_type": "aggregate",
            "aggregate_name": "median", "real_time": real_time, "time_unit": "ms",
            "events_per_sec": events_per_sec}


def throughput_report(eps_by_args):
    """{"<jobs>/<machines>": events/s} -> one BM_ClusterSimThroughput row each."""
    return [row(f"BM_ClusterSimThroughput/{args}", eps) for args, eps in eps_by_args.items()]


# The committed heap rows before profiling admission became O(cap): the
# 100k-job row ran at a quarter of the 1000-job row's events/s.
GROWING_COST = throughput_report({
    "1000/100": 4335262.2, "10000/1000": 3089730.7,
    "100000/10000/iterations:1": 1072077.4,
})

FLAT_COST = throughput_report({
    "1000/100": 4.4e6, "10000/1000": 4.1e6, "100000/10000/iterations:1": 3.6e6,
})


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_selftest_")
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, benchmarks):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"context": {}, "benchmarks": benchmarks}, f)
        return path

    def run_tool(self, *args):
        proc = subprocess.run([sys.executable, TOOL, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    def test_growing_cost_per_event_fails(self):
        rc, out = self.run_tool("--scaling", self.write("r.json", GROWING_COST))
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL", out)
        self.assertIn("BM_ClusterSimThroughput/100000/10000/iterations:1", out)

    def test_flat_cost_per_event_passes(self):
        rc, out = self.run_tool("--scaling", self.write("r.json", FLAT_COST))
        self.assertEqual(rc, 0, out)
        self.assertIn("OK", out)

    def test_smoke_report_without_large_rows_passes(self):
        smoke = [r for r in FLAT_COST if "/100000/" not in r["name"]]
        rc, out = self.run_tool("--scaling", self.write("r.json", smoke))
        self.assertEqual(rc, 0, out)

    def test_missing_base_row_fails(self):
        report = throughput_report({"10000/1000": 4e6, "100000/10000": 4e6})
        rc, out = self.run_tool("--scaling", self.write("r.json", report))
        self.assertEqual(rc, 1, out)
        self.assertIn("no 1000-job row", out)

    def test_report_without_throughput_rows_fails(self):
        rc, out = self.run_tool("--scaling", self.write("r.json", [row("BM_Other/1", 1.0)]))
        self.assertEqual(rc, 1, out)

    def test_median_aggregate_stands_for_repetitions(self):
        # Five repetitions whose last one is an outlier: the median wins.
        name = "BM_ClusterSimThroughput/100000/10000/iterations:1"
        reps = [row(name, eps, real_time=t, repetition_index=i)
                for i, (eps, t) in enumerate([(4e6, 100.0), (4.1e6, 98.0), (3.9e6, 103.0),
                                              (4e6, 100.0), (1e6, 400.0)])]
        benchmarks = (throughput_report({"1000/100": 4.2e6}) + reps +
                      [median(name, 4e6, real_time=100.0)])
        rows = bench_compare.representative_rows(benchmarks)
        self.assertEqual(rows[name]["real_time"], 100.0)
        self.assertEqual(rows[name]["events_per_sec"], 4e6)
        self.assertNotIn(f"{name}_median", rows)
        rc, out = self.run_tool("--scaling", self.write("r.json", benchmarks))
        self.assertEqual(rc, 0, out)

        history = bench_compare.collect(self.tmp.name)
        self.assertEqual(history["r.json"][name], {"real_time": 100.0, "time_unit": "ms"})

    def test_without_repetitions_the_iteration_row_is_kept(self):
        self.write("r.json", [row("BM_A/1", 1.0, real_time=7.0)])
        history = bench_compare.collect(self.tmp.name)
        self.assertEqual(history, {"r.json": {"BM_A/1": {"real_time": 7.0, "time_unit": "ms"}}})


if __name__ == "__main__":
    unittest.main(verbosity=2)
