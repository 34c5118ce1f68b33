#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of convavg).

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
every named metric is present and finite, that the traced replay
attempts exactly the operations of the untraced pass, that BENCHMARK.json
names exactly the metrics the runs emit, and that the benchmark refuses
to run without the program's sources.  Takes about ten seconds.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.import_program()

import tracing      # noqa: E402  (needs convavg on the path)

# A tiny size per workload: (rounds, operations taken from each round).
TINY = {"design-grid": (1, None), "transient-drive": (1, 1),
        "switched-crosscheck": (1, 1), "cli-bundled": (1, 2)}

REPORT_METRICS = {
    "design-grid": ("dc_points_per_s", "dc_solve_ms_p50", "dc_solve_ms_p99",
                    "ac_responses_per_s", "dc_gain_err_pct_max"),
    "transient-drive": ("tran_sim_ms_per_s", "tran_run_s_p50", "settle_err_pct_max"),
    "switched-crosscheck": ("switched_cycles_per_s", "crosscheck_s_p50",
                            "switched_err_pct_max"),
    "cli-bundled": ("cli_s_p50",),
}
EVERY_WORKLOAD = ("setup_s", "peak_rss_mb")


def tiny_run(name, trace):
    rounds, max_ops = TINY[name]
    return run.run_workload(name, seed=0, seconds=1.0, trace=trace, rounds=rounds,
                            max_ops=max_ops, setup_repeats=1)


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_metrics_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_metrics_match(self):
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in self.spec["per_layer"]}, tracing.PER_LAYER)


class TinyRuns(unittest.TestCase):
    def check_finite(self, metrics):
        for key, value in metrics.items():
            self.assertTrue(math.isfinite(value), "%s = %r" % (key, value))

    def test_untraced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                report, final = tiny_run(name, trace=False)
                self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(final["attempted"], 1)
                self.assertEqual(set(final["metrics"]), set(run.END_TO_END))
                values = {k: v["value"] for k, v in final["metrics"].items()}
                self.check_finite(values)
                for key in ("work_per_s", "op_ms_p50", "setup_s", "peak_rss_mb"):
                    self.assertGreater(values[key], 0.0, key)
                for key in REPORT_METRICS[name] + EVERY_WORKLOAD:
                    self.assertIn(key, report["metrics"])
                self.check_finite(report["metrics"])
                self.assertIn("failed_ops_ratio", report)

    def test_traced_replays_same_operations(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                untraced, _ = tiny_run(name, trace=False)
                report, final = tiny_run(name, trace=True)
                self.assertEqual(set(final["metrics"]), set(tracing.PER_LAYER))
                self.check_finite({k: v["value"] for k, v in final["metrics"].items()})
                self.assertEqual(final["attempted"], report["attempted"])
                self.assertEqual(final["attempted"], untraced["attempted"])
                self.assertEqual(final["failed"], untraced["failed"])

    def test_same_seed_same_errors(self):
        first, _ = tiny_run("design-grid", trace=False)
        second, _ = tiny_run("design-grid", trace=False)
        for key in ("dc_gain_err_pct_max", "dc_residual_max"):
            self.assertEqual(first["metrics"][key], second["metrics"][key])


class WithoutSources(unittest.TestCase):
    def test_refuses_without_program(self):
        scratch = tempfile.mkdtemp(prefix=".selftest-", dir=run.BENCH)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(run.BENCH, scratch + "/bench",
                            ignore=shutil.ignore_patterns(".selftest-*", ".trace-*",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "design-grid",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(scratch)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
