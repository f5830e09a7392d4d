// Recorder: the per-island bundle of MetricsRegistry + TraceLog, stamped
// with deterministic simulated time.
//
// Each net::Network owns one (benches build several networks in one
// process; a global would mix their runs), and every layer built on that
// network takes it, its ordering-oracle pointer and its counter handles at
// construction: Totem from the network, GCS from Totem, and the CTS,
// replication, CausalMessenger and HandoffStream from the GCS endpoint.
// Observability is therefore always on and needs no wiring call.  Recording
// never feeds back into the simulation — no RNG draws, no scheduled
// events — so it cannot perturb determinism.
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
  /// called before the first layer is built on the network — each layer
  /// takes the oracle pointer at construction.  Idempotent.
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
  /// Called by summary() and the exports; cheap and idempotent.
  void sync_sim_stats() {
    metrics_.counter("sim.events_executed").value = sim_.events_executed();
    metrics_.set_gauge("sim.queue_depth", static_cast<std::int64_t>(sim_.pending()));
  }

 private:
  sim::Simulator& sim_;
  MetricsRegistry metrics_;
  TraceLog trace_;
  std::unique_ptr<OrderingOracle> oracle_;
};

/// Honor the observability environment variable CTS_OBS_DIR=<dir>: write
/// <dir>/<label>.metrics.json and <dir>/<label>.trace.jsonl.  Multi-run
/// benches pass a distinct label per run.  Returns the number of files
/// written (0 when the variable is unset).  Non-const: syncs the
/// simulator's own stats into the registry before writing.
int export_from_env(Recorder& rec, const std::string& label);

}  // namespace cts::obs
