// The benchmark's three workloads, driven through the public API the
// examples use (Testbed, Archipelago, RmiClient, GatewayRouter).
//
// One call to run_rep() builds a workload's topology from the seed, runs a
// fixed amount of client work, checks every output and returns what it
// measured.  Repetitions with the same seed and a schedule-preserving
// variant produce the same schedule fingerprint; the caller compares them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kFig5Rmi, kShardedKv, kPassiveChurn };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// One rung of the traced run's ladder.  The untraced default is what the
/// end-to-end metrics measure; each other rung flips one switch.
struct Variant {
  /// Drain the TraceLog between run slices and install the public hooks
  /// (Replica decorator, round observers).  Never changes the schedule.
  bool traced = false;
  /// TestbedConfig::oracle.  Off only in the oracle-cost rung.
  bool oracle = true;
  /// fig5_rmi only: false serves from local_time_server_factory (no CCS).
  bool cts = true;
  /// Island workers (sharded_kv only; any count gives the same schedule).
  unsigned threads = 1;
};

struct RepResult {
  double setup_s = 0;  // host: topology construction + start()
  double run_s = 0;    // host: first request to last reply
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::vector<double> lat_us;  // simulated, one per answered op
  std::vector<double> gap_us;  // simulated, probe instant -> next reply
  std::uint64_t run_events = 0;  // simulator events in the measured phase
  // Schedule fingerprint: every simulator event (set-up included) and a
  // digest of the reply bytes in completion order.
  std::uint64_t events = 0;
  std::uint64_t reply_digest = 0;
  std::vector<std::string> failures;  // correctness checks that did not hold
  /// Per-layer values by metric name.  Counts from public stats are filled
  /// on every rep; trace joins and hook timings only on traced reps.
  std::map<std::string, double> layer;
};

/// `smoke` shrinks the workload to a few hundred ops.
RepResult run_rep(Workload w, std::uint64_t seed, bool smoke, const Variant& v);

/// Island workers the sharded workload uses: min(4, hardware threads).
unsigned default_threads();

}  // namespace perfbench
