// app::Scenario — the one scenario engine: build a topology, apply a fault
// schedule, drive a client workload, then check and fingerprint the run.
//
// A ScenarioSpec is everything `ctsim` parses from its command line, so any
// run can be replayed from its spec.  run_scenario() builds one Testbed for
// `rings == 1` and an Archipelago for `rings > 1`.  The two stay apart on
// purpose: an Archipelago with one ring uses the ShardMap's group ids and
// per-ring seed, so it would change every single-ring schedule.  Everything
// around that choice is shared:
//
//   * the fault schedule (FaultEvent) — faults hit ring 0; the drain runs
//     until the last timed fault has fired;
//   * the client loops — closed-loop time-server or KV requests per ring;
//     a run gives up 600 s of simulated time after the last reply;
//   * the checks — clock monotonicity, replica consistency (first live
//     replica against every other, passive primaries only, every shard),
//     oracle and cross-shard violations, fail-stop (no crashed replica ever
//     read its hardware clock, and a crashed node's Totem counters stay
//     frozen until its restart), every live replica having finished
//     rejoining, and no request left unanswered;
//   * the report text (its header line lists the faults in `--fault` form)
//     and the exit verdict (ScenarioResult::ok()).
//
// `--chaos N` swaps the fault schedule and the closed-loop client for the
// KV crash fuzz (one ring, `--kv` only): the engine steps the testbed from
// outside the event loop, and each of `invocations` steps runs a random
// think time, then rolls an N-sided die — 0 crashes a replica if a live
// majority survives it, 1 restarts the lowest-numbered crashed replica,
// anything else issues one open-loop PUT/GET/DEL/ACQUIRE/RELEASE.  Then it
// restarts every crashed replica and drains until every request is
// answered and every replica has rejoined.  Its crashes and restarts go
// through the same fault path as a spec's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "cts/consistent_time_service.hpp"
#include "sim/parallel.hpp"

namespace cts::app {

/// One fault, written `KIND@TRIGGER` (ctsim's repeatable `--fault`):
///
///   crash:R     fail-stop crash of replica R (of ring 0)
///   recover:R   restart replica R; it rejoins by state transfer
///   partition:R cut replica R's node off from every other node (replaces
///               any earlier partition)
///   heal        remove the partition
///   step:R+D    step replica R's hardware clock by +D or -D (a time)
///
/// The trigger is a time `T` (absolute simulated time; `us`, `ms` or `s`,
/// bare = us; a time before the end of start-up fires right after it) or
/// `evK`: after the first K simulator events that follow the start of the
/// client loop (one ring only).
struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kRecover, kPartition, kHeal, kStep };
  enum class Trigger : std::uint8_t { kTime, kEvent };
  Kind kind = Kind::kCrash;
  std::uint32_t replica = 0;  // unused by kHeal
  std::int64_t at = 0;        // us, or an event count for Trigger::kEvent
  Trigger trigger = Trigger::kTime;
  Micros step_us = 0;  // kStep only

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Parse `KIND@TRIGGER`; nullopt if malformed.  parse_fault(to_string(f)) == f.
std::optional<FaultEvent> parse_fault(std::string_view text);
std::string to_string(const FaultEvent& f);

struct ScenarioSpec {
  std::size_t servers = 3;
  /// Totem rings; more than one runs the sharded Archipelago.
  std::size_t rings = 1;
  ccs::ReplicationStyle style = ccs::ReplicationStyle::kActive;
  int invocations = 1000;
  Micros think_us = 500;
  std::uint64_t seed = 1;
  double loss = 0.0;
  Micros max_clock_offset_us = 500'000;
  double max_drift_ppm = 50.0;
  std::uint32_t checkpoint_every = 5;
  ccs::DriftCompensation drift = ccs::DriftCompensation::kNone;
  Micros mean_delay_us = 40;
  double reference_gain = 0.1;
  std::vector<FaultEvent> faults;
  std::uint32_t shards = 1;
  /// Sides of the chaos die (0 = off; see the top of this file).
  std::uint32_t chaos = 0;
  /// Island worker threads (doc/PARALLEL.md); any value gives the same
  /// schedule byte for byte.
  unsigned threads = sim::threads_from_env(1);
  bool durable = false;  // stable storage + cold-startable
  bool kv = false;       // the lease KV store instead of the time server
  bool verbose = false;  // fault narration and the obs summary in the report
  std::string metrics_json;  // write obs metrics JSON here ("" = off)
  std::string trace_jsonl;   // write obs trace JSONL here ("" = off)
  /// File stem for the CTS_OBS_DIR export (obs/recorder.hpp).
  std::string label = "ctsim";
};

/// A parsed command line: the spec plus every seed to run it under
/// (`spec.seed` is the first).  `error` is non-empty when the arguments
/// are invalid; it is "usage" for a plain syntax error.
struct ScenarioArgs {
  ScenarioSpec spec;
  std::vector<std::uint64_t> seeds;
  std::string error;
};

ScenarioArgs parse_scenario_args(int argc, const char* const* argv);

/// The option summary printed by `ctsim` on a usage error.
const char* scenario_usage();

struct ScenarioResult {
  std::uint64_t seed = 0;
  /// Fingerprint of every recorder's metrics and trace, in ring order.
  /// Equal seeds and specs give equal digests for any thread count.
  std::uint64_t export_digest = 0;
  std::uint64_t replies = 0;
  /// Requests issued but never answered; must stay 0.
  std::uint64_t dropped = 0;
  /// Deliveries the oracle checked (0 when it is off, CTS_ORACLE=off).
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_violations = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t monotonicity_violations = 0;
  /// Largest step between consecutive time-server reply stamps: how far
  /// the group clock jumped as the clients saw it.
  Micros max_clock_step_us = 0;
  /// Clock reads by crashed replicas (fail-stop tripwire); must stay 0.
  std::uint64_t reads_after_failure = 0;
  /// Crash intervals in which the crashed node's Totem counters moved
  /// (it sent, received or delivered while dead); must stay 0.
  std::uint64_t crashed_node_activity = 0;
  /// Live replicas that never finished rejoining (still in state transfer
  /// at the end of the run); must stay 0.
  std::uint64_t unrecovered = 0;
  bool consistent = true;
  bool all_alive = true;
  /// Multi-ring runs: stamped pings crossed rings and, with the KV
  /// workload, the gateway forwarded requests.  Always true for one ring.
  bool cross_ring_ok = true;
  /// The human-readable report `ctsim` prints for a single seed.
  std::string report;

  [[nodiscard]] bool ok() const {
    return monotonicity_violations == 0 && consistent && oracle_violations == 0 &&
           cross_shard == 0 && reads_after_failure == 0 && crashed_node_activity == 0 &&
           unrecovered == 0 && dropped == 0 && cross_ring_ok;
  }
  /// One JSON object on one line (with '\n'), as printed per seed by a
  /// multi-seed `ctsim` run.
  [[nodiscard]] std::string json_line() const;
};

ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace cts::app
