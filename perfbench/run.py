#!/usr/bin/env python3
"""Build and run the benchmark for the simulated consistent time service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5_rmi --seed 1 --seconds 10 --trace 0

Builds the repository's src/ libraries and the perfbench driver (an optimised
CMake build under .bench_build/perfbench), runs one workload and relays the
driver's output.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.  --smoke runs a few hundred
operations instead of the full workload.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig5_rmi", "sharded_kv", "passive_churn")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ under {ROOT}: run from a checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return BUILD / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if os.environ.get("CTS_ORACLE") in ("off", "0"):
        fail("refusing to run with CTS_ORACLE disabled: the correctness gate needs the oracle")

    exe = build()
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.smoke:
        cmd.append("--smoke")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=3 * a.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time", 1)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed no result line", 1)
    if out.returncode != 0:
        sys.exit(out.returncode)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
