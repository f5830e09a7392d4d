#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at small size, both modes.

Run from the root of a checkout:  python3 perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the correctness gate passes, that one seed gives one schedule fingerprint,
and that the benchmark refuses to run with the ordering oracle disabled.
"""
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=1, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprints(proc):
    return [line for line in proc.stdout.splitlines() if line.startswith("# fingerprint")]


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_unit_and_gate_passes(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    r = result(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(list(r["metrics"]), [m["name"] for m in declared])
                    for m in declared:
                        got = r["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float), m["name"])
                    self.assertTrue(any(line.startswith("# host nproc=")
                                        for line in proc.stdout.splitlines()))

    def test_seed_fixes_the_schedule(self):
        a = run("passive_churn", 0, seed=7)
        b = run("passive_churn", 0, seed=7)
        c = run("passive_churn", 0, seed=8)
        self.assertEqual(fingerprints(a), fingerprints(b))
        self.assertNotEqual(fingerprints(a), fingerprints(c))
        for name in ("lat_p50_us", "lat_p99_us", "gap_ms"):
            self.assertEqual(result(a)["metrics"][name], result(b)["metrics"][name])

    def test_refuses_oracle_off(self):
        proc = run("fig5_rmi", 0, env=dict(os.environ, CTS_ORACLE="off"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
