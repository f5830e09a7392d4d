#!/usr/bin/env python3
"""Validate a bench trajectory file (BENCH_sim_core.json schema v1).

Usage: check_bench_schema.py [--delta] FILE [FILE...]

The recorded performance trajectory is an append-only series of labeled
runs; CI gates on this checker so a malformed append (truncated write,
duplicate label, missing metric) is caught at merge time rather than when
someone next tries to plot the trajectory.

Every entry bench_sim_core writes carries a host fingerprint ("host":
{nproc, compiler, build_type, cpu}); absolute timings do not carry across
hosts, so a before/after pair whose fingerprints differ is rejected.
Entries recorded before the fingerprint existed have none and are exempt
as long as both sides of their pair lack it.

The recorded trajectory (a file named BENCH_sim_core.json) must also keep
every before/after pair listed in REQUIRED_PAIR_PREFIXES.  Any other file,
such as the one-entry output of a smoke run, is checked for shape only.

With --delta, additionally print a per-benchmark delta table for the most
recent '<prefix>-before-*' / '<prefix>-after-*' pair in each file (ns/op
and items/s where present).  The table is informational: CI runs it as a
non-gating step so reviewers see the measured effect of an optimization PR
without digging through raw JSON.

Exit status: 0 if every file validates, 1 otherwise (all problems are
reported, not just the first).
"""

import json
import os
import sys

# Every benchmark name the trajectory may carry (arguments like
# 'BM_EventScheduleFire/64' are matched on the part before the first '/').
# A new benchmark must be registered here when it is introduced, so a typo'd
# or renamed metric fails the gate instead of silently forking the series.
KNOWN_BENCHMARKS = frozenset({
    "BM_EventScheduleFire",
    "BM_EventScheduleFireCapture40",
    "BM_EventScheduleBurst64",
    "BM_EventCancel64",
    "BM_TimerReschedule",
    "BM_NetBroadcast1400B",
    "BM_TokenRingEventsPerSec",
    "BM_RingBatchThroughput",
    "BM_StateTransferVerify",
    "BM_OracleOverhead",
    # PR 8: island-parallel simulation + scenario-sweep harness.
    "BM_ArchipelagoEventsPerSec",
    "BM_ScenarioSweep",
    # PR 9: sharded topology + gateway routing.
    "BM_ShardedGatewayOpsPerSec",
    # Recording into the always-on TraceLog.
    "BM_TraceRecord",
    # Hot-path codec, RNG, histogram and whole-stack rungs.
    "BM_BytesWriterSmallMessage",
    "BM_BytesReaderSmallMessage",
    "BM_CcsPayloadRoundTrip",
    "BM_GcsHeaderRoundTrip",
    "BM_RngNext",
    "BM_RngGaussian",
    "BM_HistogramAdd",
    "BM_FullStackSimulationSpeed",
    # Totem envelope seal + verify (53-byte token, 7 KiB batch frame).
    "BM_EnvelopeSealVerify",
    # A passive backup's KV restore of a checkpoint 10 keys away.
    "BM_KvCheckpointApply",
})

# Optimization PRs whose before/after pair is part of the recorded history:
# the recorded trajectory must keep BOTH runs of each listed prefix, so the
# delta stays reconstructible forever (a later rewrite that drops one side
# fails the gate).  Only the file named RECORDED_TRAJECTORY is held to
# this; a one-shot file such as CI's bench-smoke.json has no history.
REQUIRED_PAIR_PREFIXES = frozenset({
    # PR 10: deterministic flat containers under the delivery pipeline.
    "pr10",
    # Stable-message discard in the Totem store (BM_RingBatchThroughput).
    "pr12",
    # TraceLog stored as delta-varint chunks (BM_TraceRecord).
    "pr13",
    # Spin-then-park island barrier with stealing (BM_ArchipelagoEventsPerSec,
    # BM_ShardedGatewayOpsPerSec at CTS_SIM_THREADS=4).
    "pr18",
    # Word-at-a-time integrity hashes (BM_EnvelopeSealVerify,
    # BM_StateTransferVerify, BM_RingBatchThroughput, BM_TokenRingEventsPerSec).
    "pr21",
    # KV checkpoints restored in place (BM_KvCheckpointApply).
    "pr23",
})
RECORDED_TRAJECTORY = "BENCH_sim_core.json"

# The host fingerprint's fields and their types.
HOST_FIELDS = {"nproc": int, "compiler": str, "build_type": str, "cpu": str}


def fail(problems, path, msg):
    problems.append(f"{path}: {msg}")


def check_result(problems, path, label, res, idx):
    where = f"runs[{label!r}].results[{idx}]"
    if not isinstance(res, dict):
        fail(problems, path, f"{where} is not an object")
        return
    name = res.get("name")
    if not isinstance(name, str) or not name:
        fail(problems, path, f"{where} has no benchmark name")
        return
    base = name.split("/", 1)[0]
    if base not in KNOWN_BENCHMARKS:
        fail(problems, path,
             f"{where}: unknown benchmark {base!r}; register new metrics in "
             f"KNOWN_BENCHMARKS (tools/check_bench_schema.py) when introducing them")
    for key in ("iterations", "real_ns_per_op", "cpu_ns_per_op"):
        v = res.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            fail(problems, path, f"{where} ({name}): {key!r} must be a non-negative number, got {v!r}")
    ips = res.get("items_per_second")
    if ips is not None and (not isinstance(ips, (int, float)) or isinstance(ips, bool) or ips < 0):
        fail(problems, path, f"{where} ({name}): optional 'items_per_second' must be a non-negative number, got {ips!r}")


def check_host(problems, path, label, host):
    """A present host fingerprint must carry every field with its type."""
    if not isinstance(host, dict):
        fail(problems, path, f"runs[{label!r}]: 'host' must be an object, got {host!r}")
        return
    for key, typ in HOST_FIELDS.items():
        v = host.get(key)
        if not isinstance(v, typ) or isinstance(v, bool) or v in ("", 0):
            fail(problems, path, f"runs[{label!r}]: host {key!r} must be a non-empty "
                                 f"{typ.__name__}, got {v!r}")


def check_file(problems, path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(problems, path, f"unreadable: {e}")
        return
    except json.JSONDecodeError as e:
        fail(problems, path, f"not valid JSON: {e}")
        return

    if not isinstance(doc, dict):
        fail(problems, path, "top level must be an object")
        return
    if doc.get("schema") != 1:
        fail(problems, path, f"'schema' must be 1, got {doc.get('schema')!r}")
    if not isinstance(doc.get("benchmark"), str) or not doc.get("benchmark"):
        fail(problems, path, "'benchmark' must be a non-empty string")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(problems, path, "'runs' must be a non-empty array")
        return

    seen_labels = set()
    labels_in_order = []
    hosts = {}  # label -> host fingerprint, or None for pre-fingerprint entries
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            fail(problems, path, f"runs[{i}] is not an object")
            continue
        label = run.get("label")
        if not isinstance(label, str) or not label:
            fail(problems, path, f"runs[{i}] has no label")
            continue
        if label in seen_labels:
            fail(problems, path, f"duplicate run label {label!r}")
        seen_labels.add(label)
        labels_in_order.append(label)
        hosts[label] = run.get("host")
        if "host" in run:
            check_host(problems, path, label, run["host"])
        results = run.get("results")
        if not isinstance(results, list) or not results:
            fail(problems, path, f"runs[{label!r}] has no results")
            continue
        names = set()
        for j, res in enumerate(results):
            check_result(problems, path, label, res, j)
            if isinstance(res, dict) and res.get("name") in names:
                fail(problems, path, f"runs[{label!r}] repeats benchmark {res.get('name')!r}")
            if isinstance(res, dict) and isinstance(res.get("name"), str):
                names.add(res["name"])

    check_pairing(problems, path, labels_in_order,
                  required=os.path.basename(path) == RECORDED_TRAJECTORY)
    check_pair_hosts(problems, path, labels_in_order, hosts)


def pair_prefix(label, marker):
    """The pairing key of a '<prefix>-before-...' / '<prefix>-after-...'
    label: the text before the marker segment, or None if the label has no
    such segment.  The marker must be a whole dash-delimited segment, so
    'pr9-aftermath-fix' does not count as an 'after' label."""
    segments = label.split("-")
    for k, seg in enumerate(segments):
        if seg == marker and k > 0:
            return "-".join(segments[:k])
    return None


def check_pairing(problems, path, labels, required):
    """Every '<prefix>-after-*' run must ride with its '<prefix>-before-*'
    partner: an optimization PR that records only the after-number has lost
    its baseline, and the trajectory can no longer show the delta.  When
    `required`, the prefixes in REQUIRED_PAIR_PREFIXES must also be present
    as complete pairs."""
    before_prefixes = {pair_prefix(lab, "before") for lab in labels}
    after_prefixes = {pair_prefix(lab, "after") for lab in labels}
    for lab in labels:
        prefix = pair_prefix(lab, "after")
        if prefix is not None and prefix not in before_prefixes:
            fail(problems, path,
                 f"run label {lab!r} has no matching {prefix + '-before-*'!r} partner: "
                 f"record the baseline run before the optimized one")
    for prefix in sorted(REQUIRED_PAIR_PREFIXES if required else ()):
        missing = [m for m, seen in (("before", before_prefixes), ("after", after_prefixes))
                   if prefix not in seen]
        if missing:
            fail(problems, path,
                 f"required pair {prefix!r} is incomplete: missing "
                 f"{', '.join(prefix + '-' + m + '-*' for m in missing)} "
                 f"(REQUIRED_PAIR_PREFIXES in tools/check_bench_schema.py)")


def check_pair_hosts(problems, path, labels, hosts):
    """Both runs of a before/after pair must come from one host.  A pair
    where neither side has a fingerprint predates it and is exempt; a pair
    where only one side has it cannot be shown to share a host."""
    befores = {}
    for lab in labels:
        prefix = pair_prefix(lab, "before")
        if prefix is not None:
            befores.setdefault(prefix, []).append(lab)
    for lab in labels:
        prefix = pair_prefix(lab, "after")
        if prefix is None:
            continue
        for before in befores.get(prefix, []):
            hb, ha = hosts.get(before), hosts.get(lab)
            if hb is None and ha is None:
                continue
            if hb != ha:
                fail(problems, path,
                     f"pair {before!r} / {lab!r} was recorded on different hosts "
                     f"({hb!r} vs {ha!r}): record both runs back to back on one host")


def print_delta_table(path):
    """Print the per-benchmark delta between the newest before/after pair."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return  # validation already reported the problem
    runs = doc.get("runs") or []
    by_label = {r.get("label"): r for r in runs if isinstance(r, dict)}
    pair = None  # (prefix, before_label, after_label); newest after wins
    for lab in by_label:
        prefix = pair_prefix(lab or "", "after")
        if prefix is None:
            continue
        before = next((b for b in by_label if pair_prefix(b or "", "before") == prefix), None)
        if before is not None:
            pair = (prefix, before, lab)
    if pair is None:
        print(f"{path}: no before/after pair to diff")
        return
    prefix, before_lab, after_lab = pair
    before = {r["name"]: r for r in by_label[before_lab].get("results", [])
              if isinstance(r, dict) and "name" in r}
    after = {r["name"]: r for r in by_label[after_lab].get("results", [])
             if isinstance(r, dict) and "name" in r}
    print(f"\n{path}: {before_lab!r} -> {after_lab!r}")
    header = f"{'benchmark':<38} {'ns/op before':>14} {'ns/op after':>14} {'delta':>8}"
    print(header)
    print("-" * len(header))
    for name in sorted(set(before) & set(after)):
        b, a = before[name].get("cpu_ns_per_op"), after[name].get("cpu_ns_per_op")
        if not isinstance(b, (int, float)) or not isinstance(a, (int, float)) or not b:
            continue
        pct = (a - b) / b * 100.0
        print(f"{name:<38} {b:>14.1f} {a:>14.1f} {pct:>+7.1f}%")
        bi, ai = before[name].get("items_per_second"), after[name].get("items_per_second")
        if isinstance(bi, (int, float)) and isinstance(ai, (int, float)) and bi:
            ipct = (ai - bi) / bi * 100.0
            print(f"{'  items/s':<38} {bi:>14.3g} {ai:>14.3g} {ipct:>+7.1f}%")
    only = sorted(set(before) ^ set(after))
    if only:
        print(f"  (unpaired benchmarks skipped: {', '.join(only)})")


def main(argv):
    args = argv[1:]
    delta = "--delta" in args
    paths = [a for a in args if a != "--delta"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in paths:
        check_file(problems, path)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if not problems:
        print(f"ok: {len(paths)} trajectory file(s) validate")
    if delta:
        for path in paths:
            print_delta_table(path)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
