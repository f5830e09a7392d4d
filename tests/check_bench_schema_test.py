#!/usr/bin/env python3
"""Tests for tools/check_bench_schema.py.

Usage: check_bench_schema_test.py REPO_ROOT

The recorded trajectory must validate with every required before/after
pair present, and a one-entry file like the CI smoke run's must validate
without them: required pairs are history, and a smoke file has none.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(sys.argv.pop(1) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
CHECKER = ROOT / "tools" / "check_bench_schema.py"

ONE_ENTRY = {
    "benchmark": "sim_core",
    "schema": 1,
    "runs": [{
        "label": "ci-smoke",
        "host": {"nproc": 4, "compiler": "gcc 12.2.0", "build_type": "Release",
                 "cpu": "test cpu"},
        "results": [
            {"name": "BM_TraceRecord", "iterations": 1000, "real_ns_per_op": 17.5,
             "cpu_ns_per_op": 17.4, "items_per_second": 5.7e7},
            {"name": "BM_EventScheduleFire/64", "iterations": 1000, "real_ns_per_op": 40.0,
             "cpu_ns_per_op": 39.9, "items_per_second": 2.5e7},
        ],
    }],
}


def check(*paths):
    return subprocess.run([sys.executable, str(CHECKER), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


class CheckBenchSchemaTest(unittest.TestCase):
    def test_recorded_trajectory_validates(self):
        proc = check(ROOT / "BENCH_sim_core.json")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_one_entry_smoke_file_validates(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench-smoke.json"
            path.write_text(json.dumps(ONE_ENTRY))
            proc = check(path)
            self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_required_pairs_still_bind_the_recorded_trajectory(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_sim_core.json"
            path.write_text(json.dumps(ONE_ENTRY))
            proc = check(path)
            self.assertEqual(proc.returncode, 1)
            self.assertIn("required pair 'pr13' is incomplete", proc.stderr)

    def test_smoke_file_shape_is_still_checked(self):
        bad = json.loads(json.dumps(ONE_ENTRY))
        bad["runs"][0]["results"][0]["name"] = "BM_NoSuchBenchmark"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench-smoke.json"
            path.write_text(json.dumps(bad))
            proc = check(path)
            self.assertEqual(proc.returncode, 1)
            self.assertIn("unknown benchmark 'BM_NoSuchBenchmark'", proc.stderr)


if __name__ == "__main__":
    unittest.main()
