// A full simulated instance of the paper's experimental setup (Section 4.2):
//
//   "four Pentium III PCs ... over a 100Mbit/sec Ethernet ... Four copies of
//    Totem run on the four PCs, one for each PC ... a CORBA client makes a
//    remote method invocation on a three-way actively replicated server.
//    The client runs as the ring leader, n0.  One replica of the server
//    runs on each of the other three nodes, n1, n2 and n3."
//
// The Testbed wires together the whole stack per node — Totem, the GCS
// endpoint, a drifting physical hardware clock, the replication manager
// with its Consistent Time Service, and the application replica — plus an
// unreplicated RMI client on node 0.  Used by integration tests, every
// benchmark, and the examples.
#pragma once

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "app/time_server.hpp"
#include "clock/physical_clock.hpp"
#include "common/unique_fn.hpp"
#include "cts/consistent_time_service.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "orb/rmi_client.hpp"
#include "replication/replica_manager.hpp"
#include "sim/simulator.hpp"
#include "storage/stable_store.hpp"
#include "totem/totem.hpp"

namespace cts::app {

struct TestbedConfig {
  /// Number of server replicas (each on its own node).
  std::size_t servers = 3;
  /// Whether node 0 hosts an unreplicated client (the ring leader).
  bool with_client = true;

  replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
  std::uint64_t seed = 1;

  net::NetworkConfig net;

  /// Physical clock diversity.
  Micros max_clock_offset_us = 500'000;
  double max_drift_ppm = 50.0;

  /// Consistent Time Service options.  kReferenceBias gives the testbed a
  /// reference clock (seeded from `seed`) that every replica reads,
  /// restarted ones included.
  ccs::DriftCompensation drift = ccs::DriftCompensation::kNone;
  Micros mean_delay_us = 0;
  double reference_gain = 0.0;

  /// Passive replication checkpoint cadence (requests).
  std::uint32_t checkpoint_every = 0;

  /// Request-processing shards per replica and the routing function
  /// (active/semi-active only).
  std::uint32_t shards = 1;
  std::function<std::uint32_t(const gcs::Message&)> shard_fn;

  /// Give every server host a simulated local disk and persist checkpoints
  /// to it, enabling cold starts after a total failure.
  bool with_stable_storage = false;
  std::uint32_t persist_every = 0;

  /// Recovering replicas re-issue GET_STATE after this long without a
  /// checkpoint.  Tests shrink it to force the retry to cross its own
  /// in-flight reply.
  Micros get_state_retry_us = 2'000'000;

  /// Application factory; defaults to the paper's time server.
  replication::ReplicaFactory factory;

  /// Group ids this testbed's server group and client send under.  Ring-
  /// local by default; the Archipelago (app/archipelago.hpp) assigns each
  /// ring a globally unique server group so inter-ring messages can name
  /// their destination ring by group id.
  GroupId server_group = GroupId{1};
  GroupId client_group = GroupId{2};

  /// Runtime ordering oracle (doc/STATIC_ANALYSIS.md): verifies total
  /// order, causal floor, clock monotonicity, membership and checkpoint
  /// coverage on every delivery, and aborts on the first violation.  On by
  /// default so the whole suite runs under it; the env var CTS_ORACLE
  /// ("off"/"0" or "on"/"1") overrides this flag either way.
  bool oracle = true;
};

/// Well-known ids used by the testbed.
struct TestbedIds {
  static constexpr GroupId kServerGroup{1};
  static constexpr GroupId kClientGroup{2};
  static constexpr ConnectionId kRequestConn{1};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg) : cfg_(std::move(cfg)), sim_(cfg_.seed), net_(sim_, cfg_.net) {
    // The network's recorder observes every layer of this testbed.  The
    // oracle must exist before the first node is built: each layer takes
    // its pointer at construction.
    bool oracle = cfg_.oracle;
    if (const char* env = std::getenv("CTS_ORACLE")) {
      const std::string_view v(env);
      oracle = !(v == "off" || v == "0");
    }
    if (oracle) recorder().enable_oracle(/*abort_on_violation=*/true);

    const std::size_t nodes = cfg_.servers + (cfg_.with_client ? 1 : 0);
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < nodes; ++i) tcfg.universe.push_back(NodeId{i});

    if (!cfg_.factory) cfg_.factory = time_server_factory();

    Rng clock_rng(cfg_.seed * 7919 + 13);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      totems_.push_back(std::make_unique<totem::TotemNode>(sim_, net_, NodeId{i}, tcfg));
      eps_.push_back(std::make_unique<gcs::GcsEndpoint>(sim_, *totems_.back()));
      clocks_.push_back(std::make_unique<clock::PhysicalClock>(
          sim_, clock::random_clock_config(clock_rng, cfg_.max_clock_offset_us,
                                           cfg_.max_drift_ppm)));
    }

    const std::uint32_t first_server = cfg_.with_client ? 1 : 0;
    if (cfg_.drift == ccs::DriftCompensation::kReferenceBias) {
      reference_ = std::make_unique<clock::ReferenceTimeSource>(sim_, Rng(cfg_.seed * 31 + 5), 200);
    }
    if (cfg_.with_stable_storage) {
      for (std::uint32_t s = 0; s < cfg_.servers; ++s) {
        stores_.push_back(std::make_unique<storage::StableStore>(
            sim_, storage::StableStore::Config{}, cfg_.seed * 101 + s));
      }
    }
    for (std::uint32_t s = 0; s < cfg_.servers; ++s) {
      const std::uint32_t node = first_server + s;
      replication::ManagerConfig mcfg;
      mcfg.group = cfg_.server_group;
      mcfg.replica = ReplicaId{s};
      mcfg.style = cfg_.style;
      mcfg.drift = cfg_.drift;
      mcfg.mean_delay_us = cfg_.mean_delay_us;
      mcfg.reference_gain = cfg_.reference_gain;
      mcfg.checkpoint_every_requests = cfg_.checkpoint_every;
      mcfg.shards = cfg_.shards;
      mcfg.shard_fn = cfg_.shard_fn;
      mcfg.get_state_retry_us = cfg_.get_state_retry_us;
      if (cfg_.with_stable_storage) {
        mcfg.stable_store = stores_[s].get();
        mcfg.persist_every_requests = cfg_.persist_every;
      }
      managers_.push_back(make_manager(node, mcfg));
    }

    if (cfg_.with_client) {
      client_ = std::make_unique<orb::RmiClient>(sim_, *eps_[0], cfg_.client_group,
                                                 cfg_.server_group,
                                                 TestbedIds::kRequestConn);
    }
  }

  /// Boot every node and let the ring form and the group views settle.
  void start(Micros settle_us = 200'000) {
    for (auto& t : totems_) t->start();
    for (auto& m : managers_) m->start();
    sim_.run_for(settle_us);
  }

  // --- Accessors --------------------------------------------------------------

  sim::Simulator& sim() { return sim_; }
  net::Network& net() { return net_; }
  obs::Recorder& recorder() { return net_.recorder(); }
  orb::RmiClient& client() { return *client_; }
  [[nodiscard]] std::size_t server_count() const { return managers_.size(); }

  /// Node index hosting server replica s.
  [[nodiscard]] std::uint32_t server_node(std::uint32_t s) const {
    return (cfg_.with_client ? 1 : 0) + s;
  }

  replication::ReplicaManager& server(std::uint32_t s) { return *managers_[s]; }
  totem::TotemNode& totem_of(std::uint32_t node) { return *totems_[node]; }
  gcs::GcsEndpoint& gcs_of(std::uint32_t node) { return *eps_[node]; }
  clock::PhysicalClock& clock_of(std::uint32_t node) { return *clocks_[node]; }
  TimeServerApp& server_app(std::uint32_t s) {
    return static_cast<TimeServerApp&>(managers_[s]->app());
  }
  const TestbedConfig& config() const { return cfg_; }

  /// Node `node`'s lifecycle scope (owned by its Totem daemon).  Everything
  /// the node schedules — timers, packet deliveries, coroutine resume
  /// trampolines — is registered here and dies with the node.
  sim::TaskScope& scope_of(std::uint32_t node) { return totems_[node]->scope(); }

  // --- Fault injection ----------------------------------------------------------

  /// Fail-stop crash of server replica s (host + clock + protocol stack).
  ///
  /// Shutting the lifecycle scope down runs the per-layer shutdown hooks
  /// (Totem's hook takes the node off the ring; the CTS abandons
  /// in-flight rounds, destroying suspended caller frames) and then cancels
  /// every timer and in-flight delivery the node owns.  Failing the clock
  /// afterwards arms the fail-stop tripwire: a dead node that somehow still
  /// executed would read its clock and be counted by reads_after_failure().
  void crash_server(std::uint32_t s) {
    const auto node = server_node(s);
    totems_[node]->scope().shutdown();
    clocks_[node]->fail();
    sync_scope_stats();
  }

  /// Copy the per-node lifecycle-scope shutdown totals into the recorder's
  /// metrics registry (schema in EXPERIMENTS.md).  Called after every
  /// crash; callers that export metrics mid-run may also call it directly.
  void sync_scope_stats() {
    std::uint64_t timers = 0;
    std::uint64_t frames = 0;
    for (const auto& t : totems_) {
      timers += t->scope().timers_cancelled_on_shutdown();
      frames += t->scope().frames_destroyed_on_shutdown();
    }
    // By name, at the first sync: a run without a crash exports neither.
    recorder().counter("sim.timers_cancelled_on_shutdown").value = timers;
    recorder().counter("node.frames_destroyed_on_shutdown").value = frames;
  }

  /// Restart server replica s's host and rejoin via state transfer.  The
  /// whole process is rebuilt — a fresh GCS endpoint and replica manager —
  /// and the hardware clock comes back with a new arbitrary offset
  /// (a reboot does not preserve the system time).  `recovered` is a
  /// move-only destroy-on-drop continuation: if the testbed (or the new
  /// manager) is torn down mid-recovery it is destroyed, never invoked
  /// twice and never leaked.
  void restart_server(std::uint32_t s, UniqueFn<void()> recovered = nullptr) {
    rebuild_server(s, /*group_reset=*/false).start_recovering(std::move(recovered));
  }

  /// Restart server replica s after a TOTAL failure: rebuild the process
  /// and start from the host's local disk instead of a peer's checkpoint.
  void cold_restart_server(std::uint32_t s) {
    rebuild_server(s, /*group_reset=*/true).start_cold();
  }

  storage::StableStore& store_of(std::uint32_t s) { return *stores_[s]; }

 private:
  /// Rebuild server replica s's process on its host, not started.
  /// `group_reset` tells the oracle the whole group restarts (a cold start
  /// after a total failure).
  replication::ReplicaManager& rebuild_server(std::uint32_t s, bool group_reset) {
    const auto node = server_node(s);
    const replication::ManagerConfig mcfg = managers_[s]->config();

    // Tear down the dead process before rebuilding on the same host: the
    // old manager (and its time service) must not keep subscriptions into
    // the endpoint it is being replaced on.
    managers_[s].reset();
    eps_[node] = std::make_unique<gcs::GcsEndpoint>(sim_, *totems_[node]);

    clocks_[node]->restart(clock_restart_rng_.range(-cfg_.max_clock_offset_us,
                                                    cfg_.max_clock_offset_us));
    totems_[node]->restart();

    managers_[s] = make_manager(node, mcfg);
    if (auto* orc = recorder().oracle()) {
      orc->on_node_reset(NodeId{node});
      orc->on_replica_reset(mcfg.group, mcfg.replica);
      if (group_reset) orc->on_group_reset(mcfg.group);
    }
    return *managers_[s];
  }

  /// Server replica manager on host `node`, reading the reference clock.
  std::unique_ptr<replication::ReplicaManager> make_manager(
      std::uint32_t node, const replication::ManagerConfig& mcfg) {
    auto m = std::make_unique<replication::ReplicaManager>(sim_, *eps_[node], *clocks_[node], mcfg,
                                                           cfg_.factory);
    m->time_service().set_reference(reference_.get());
    return m;
  }

  TestbedConfig cfg_;
  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<totem::TotemNode>> totems_;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps_;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks_;
  std::unique_ptr<clock::ReferenceTimeSource> reference_;  // kReferenceBias only
  std::vector<std::unique_ptr<replication::ReplicaManager>> managers_;
  std::vector<std::unique_ptr<storage::StableStore>> stores_;
  std::unique_ptr<orb::RmiClient> client_;
  Rng clock_restart_rng_{0xC10Cu};
};

}  // namespace cts::app
