// The simulated replica-group rig the CTS tests share: hosts on one Totem
// ring, each with a GCS endpoint, a physical clock and a
// ConsistentTimeService, all recording into the network's obs::Recorder,
// optionally with its ordering oracle.  Two layouts: one group of N replicas with random
// drifting clocks, or two 2-replica groups whose clocks sit a fixed gap
// apart (the multi-group causality tests).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clock/physical_clock.hpp"
#include "cts/consistent_time_service.hpp"
#include "cts/multigroup.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::ccs {

// The one-group layout.
inline constexpr GroupId kGroup{1};
inline constexpr ConnectionId kCcsConn{100};
inline constexpr ThreadId kThread0{0};
// The two-group layout: nodes 0,1 are group A, nodes 2,3 group B.
inline constexpr GroupId kGroupA{10};
inline constexpr GroupId kGroupB{11};
inline constexpr ConnectionId kCcsConnA{100};
inline constexpr ConnectionId kCcsConnB{101};

struct RigOptions {
  ReplicationStyle style = ReplicationStyle::kActive;
  std::uint64_t seed = 1;
  Micros max_forward_jump_us = 0;
  /// Enable the recorder's (non-aborting) ordering oracle.
  bool oracle = false;
};

/// Selects the two-group layout; group A's hardware clocks run `gap_us`
/// ahead of group B's.
struct TwoGroups {
  Micros gap_us = 0;
};

class CtsRig {
 public:
  sim::Simulator sim;
  net::Network net;
  obs::Recorder& rec = net.recorder();
  obs::OrderingOracle* orc = nullptr;
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<ConsistentTimeService>> svcs;
  std::vector<std::unique_ptr<CausalMessenger>> messengers;  // two-group layout only
  std::vector<std::vector<Micros>> readings;     // group clock values per replica
  std::vector<std::vector<RoundResult>> rounds;  // observer records per replica

  /// One group of `n` replicas; node i hosts replica i.  Passive and
  /// semi-active groups start with replica 0 as the primary.
  explicit CtsRig(std::size_t n, RigOptions o = {}) : sim(o.seed), net(sim, {}) {
    wire(o, n);
    Rng clock_rng(o.seed * 7919 + 13);
    for (std::uint32_t i = 0; i < n; ++i) {
      CtsConfig cfg;
      cfg.group = kGroup;
      cfg.ccs_conn = kCcsConn;
      cfg.replica = ReplicaId{i};
      cfg.style = o.style;
      cfg.max_forward_jump_us = o.max_forward_jump_us;
      add_node(i, cfg, clock::random_clock_config(clock_rng));
    }
  }

  /// Two active groups of 2 replicas, each replica with a CausalMessenger
  /// on kThread0.
  explicit CtsRig(TwoGroups g, RigOptions o = {}) : sim(o.seed), net(sim, {}) {
    wire(o, 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      const bool in_a = i < 2;
      clock::ClockConfig ccfg;
      ccfg.initial_offset_us = in_a ? g.gap_us : 0;
      CtsConfig cfg;
      cfg.group = in_a ? kGroupA : kGroupB;
      cfg.ccs_conn = in_a ? kCcsConnA : kCcsConnB;
      cfg.replica = ReplicaId{i % 2};
      add_node(i, cfg, ccfg);
      messengers.push_back(
          std::make_unique<CausalMessenger>(*eps.back(), *svcs.back(), cfg.group, kThread0));
    }
  }

  /// Start every Totem node, join each replica to its group, and let the
  /// ring settle.
  void start(Micros settle = 100'000) {
    for (std::uint32_t i = 0; i < totems.size(); ++i) {
      totems[i]->start();
      eps[i]->join_group(svcs[i]->config().group, svcs[i]->config().replica);
    }
    sim.run_for(settle);
  }

  /// One replica's logical thread performing `ops` sequential clock reads
  /// with deterministic pseudo-random inter-op delays (the paper's "empty
  /// iteration loop" between operations).
  sim::Task worker(std::uint32_t i, int ops, std::uint64_t delay_seed) {
    Rng rng(delay_seed * 1000 + i);
    for (int k = 0; k < ops; ++k) {
      co_await sim.delay(rng.range(60, 400));
      const Micros v = co_await svcs[i]->get_time(kThread0);
      readings[i].push_back(v);
    }
  }

  /// A worker per replica; runs until each has `ops` readings or `budget`
  /// runs out.
  void run_workers(int ops, Micros budget = 60'000'000, std::uint64_t delay_seed = 42) {
    for (std::uint32_t i = 0; i < svcs.size(); ++i) worker(i, ops, delay_seed);
    const Micros deadline = sim.now() + budget;
    while (sim.now() < deadline) {
      sim.run_until(sim.now() + 10'000);
      bool all_done = true;
      for (auto& r : readings) all_done &= (r.size() >= static_cast<std::size_t>(ops));
      if (all_done) return;
    }
  }

 private:
  void wire(const RigOptions& o, std::size_t n) {
    if (o.oracle) orc = &rec.enable_oracle(/*abort_on_violation=*/false);
    for (std::uint32_t i = 0; i < n; ++i) tcfg_.universe.push_back(NodeId{i});
    readings.resize(n);
    rounds.resize(n);
  }

  void add_node(std::uint32_t i, const CtsConfig& cfg, const clock::ClockConfig& ccfg) {
    totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg_));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
    clocks.push_back(std::make_unique<clock::PhysicalClock>(sim, ccfg));
    svcs.push_back(std::make_unique<ConsistentTimeService>(sim, *eps.back(), *clocks.back(), cfg));
    svcs.back()->set_round_observer([this, i](const RoundResult& rr) { rounds[i].push_back(rr); });
    if (cfg.style != ReplicationStyle::kActive) svcs.back()->set_primary(i == 0);
  }

  totem::TotemConfig tcfg_;
};

}  // namespace cts::ccs
