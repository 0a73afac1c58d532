#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs both workloads at a reduced size (scale 0.1, a few ops), untraced and
traced, and asserts that every run passes its checks and prints every
metric BENCHMARK.json names, with its unit, plus the descriptive end-to-end
names in the human-readable listing.

    python3 perfbench/test_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Descriptive end-to-end names each workload lists (name -> unit).
NAMED = {
    "paper_queries": {"q1_ms": "ms", "q2_ms": "ms", "q3_ms": "ms",
                      "q4_ms": "ms", "qps": "1/s", "error_rate": "ratio"},
    "service_churn": {"qps": "1/s", "p50_ms": "ms", "mean_ms": "ms",
                      "p99_ms": "ms", "txn_p50_ms": "ms",
                      "txn_mean_ms": "ms", "txn_p90_ms": "ms",
                      "error_rate": "ratio"},
}


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", str(trace), "--scale", "0.1"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(s["name"] for s in specs))
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))
        if not trace:
            for spec in specs:
                self.assertGreater(result["metrics"][spec["name"]]["value"], 0,
                                   spec["name"])
            listing = "\n".join(lines[:-1])
            for name, unit in NAMED[workload].items():
                self.assertRegex(listing, r"# %s +[-0-9.]+ %s\b"
                                 % (re.escape(name), re.escape(unit)), name)

    def test_paper_queries(self):
        self.check("paper_queries", 0)
        self.check("paper_queries", 1)

    def test_service_churn(self):
        self.check("service_churn", 0)
        self.check("service_churn", 1)


if __name__ == "__main__":
    unittest.main()
