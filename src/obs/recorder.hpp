// Recorder: the per-testbed bundle of MetricsRegistry + TraceLog, stamped
// with deterministic simulated time.
//
// One Recorder per Testbed (benches build several testbeds in one process;
// a global would mix their runs).  Layers receive a nullable Recorder* via
// set_recorder() and guard every touch with `if (rec_)`, so the stack runs
// unchanged when observability is off.  Recording never feeds back into the
// simulation — no RNG draws, no scheduled events — so enabling it cannot
// perturb determinism.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/oracle.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace cts::obs {

class Recorder {
 public:
  explicit Recorder(sim::Simulator& sim) : sim_(sim) {}

  MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  TraceLog& trace() { return trace_; }
  [[nodiscard]] const TraceLog& trace() const { return trace_; }

  /// Shortcut for metrics().counter() — the common wiring call.
  Counter& counter(std::string_view name) { return metrics_.counter(name); }

  /// Create the runtime ordering oracle (doc/STATIC_ANALYSIS.md).  Must be
  /// called BEFORE the layers' set_recorder() wiring — they cache the
  /// oracle pointer alongside their hot-path counters.  Idempotent.
  OrderingOracle& enable_oracle(bool abort_on_violation = true) {
    if (!oracle_) {
      oracle_ = std::make_unique<OrderingOracle>(sim_, metrics_, trace_, abort_on_violation);
    }
    return *oracle_;
  }

  /// The oracle, or nullptr when disabled (the default outside the Testbed).
  [[nodiscard]] OrderingOracle* oracle() { return oracle_.get(); }

  /// Record a trace event stamped with the current simulated time.
  void event(EventKind kind, NodeId node = NodeId{}, ReplicaId replica = ReplicaId{},
             std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    trace_.record(sim_.now(), kind, node.value, replica.value, a, b, c);
  }

  /// Text summary of metrics plus per-kind trace tallies.
  [[nodiscard]] std::string summary();

  /// Pull the simulator's own statistics into the registry, so exports and
  /// summaries carry the engine's view of the run:
  ///   sim.events_executed (counter) — events fired since construction;
  ///   sim.queue_depth (gauge)       — live pending events at export time.
  /// Called by summary() and the exports; cheap and idempotent.  The counter
  /// and gauge slots are resolved once (stable node references) so repeated
  /// syncs skip the by-name map walk entirely.
  void sync_sim_stats() {
    if (sim_events_ == nullptr) {
      sim_events_ = &metrics_.counter("sim.events_executed");
      sim_queue_depth_ = &metrics_.gauge_slot("sim.queue_depth");
    }
    sim_events_->value = sim_.events_executed();
    *sim_queue_depth_ = static_cast<std::int64_t>(sim_.pending());
  }

 private:
  sim::Simulator& sim_;
  MetricsRegistry metrics_;
  TraceLog trace_;
  std::unique_ptr<OrderingOracle> oracle_;
  Counter* sim_events_ = nullptr;
  std::int64_t* sim_queue_depth_ = nullptr;
};

/// Honor the observability environment variable CTS_OBS_DIR=<dir>: write
/// <dir>/<label>.metrics.json and <dir>/<label>.trace.jsonl.  Multi-run
/// benches pass a distinct label per run.  Returns the number of files
/// written (0 when the variable is unset).  Non-const: syncs the
/// simulator's own stats into the registry before writing.
int export_from_env(Recorder& rec, const std::string& label);

}  // namespace cts::obs
