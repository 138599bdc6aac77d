#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and run.py agree on every metric, that each
workload prints every metric with its unit in both trace modes, and that a
deliberately corrupted result fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(workload, trace, *extra):
    """Runs one tiny benchmark run; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_the_metrics_run_py_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class WorkloadTest(unittest.TestCase):
    def check_result(self, result, wanted):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [n for n, _ in wanted])
        for name, unit in wanted:
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_metric_is_printed(self):
        for workload in run.WORKLOADS + run.UNGATED_WORKLOADS:
            for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.check_result(result, wanted)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for name, _ in wanted:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_corrupted_result_fails_the_run(self):
        for workload in run.WORKLOADS + run.UNGATED_WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 0, "--inject-wrong-result")
                self.assertEqual(code, 1)
                self.check_result(result, run.END_TO_END)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], result["failed"])


if __name__ == "__main__":
    unittest.main()
