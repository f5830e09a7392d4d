// The paper's evaluation as checked claims: EXPERIMENTS.md rows E1, E2,
// E9, E10, E12, E13 and E14.  Each test rebuilds one row's setup at a
// pinned seed, asserts the row's shape claim (what costs about one token
// rotation, what is suppressed, what grows with ring size) with a margin,
// and prints the measured row with one printf, so
//
//   ctest -R PaperClaims -V
//
// regenerates every number EXPERIMENTS.md quotes.  The rows not checked
// here (E3-E8, E11) are checked by older tests that EXPERIMENTS.md names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/scenario.hpp"
#include "app/session_manager.hpp"
#include "app/testbed.hpp"
#include "common/histogram.hpp"
#include "net/network.hpp"
#include "obs/merge.hpp"
#include "obs/oracle.hpp"
#include "testbed_util.hpp"
#include "totem/totem.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

const char* style_name(ReplicationStyle s) {
  switch (s) {
    case ReplicationStyle::kActive:
      return "active";
    case ReplicationStyle::kSemiActive:
      return "semi-active";
    case ReplicationStyle::kPassive:
      return "passive";
  }
  return "?";
}

/// Most CCS rounds any server completed (a passive backup completes none).
std::uint64_t rounds_completed(Testbed& tb) {
  std::uint64_t rounds = 0;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    rounds = std::max(rounds, tb.server(s).time_service().stats().rounds_completed);
  }
  return rounds;
}

// --- E9: the token-passing calibration the paper takes from [20] -------------

struct RingTiming {
  Histogram per_hop{1, 200};
  Histogram rotation{5, 2'000};  // full circulations, timed at node 0
};

/// An idle 4-node Totem ring, the size of the Figure 5 ring (one client,
/// three servers), timed over `hops` token passes after it formed.
RingTiming idle_ring(int hops) {
  constexpr std::uint32_t kNodes = 4;
  sim::Simulator sim(7);
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < kNodes; ++i) tcfg.universe.push_back(NodeId{i});

  RingTiming out;
  bool timing = false;
  Micros last_pass = kNoTime;
  Micros last_at_n0 = kNoTime;
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->set_token_observer([&, i] {
      if (!timing) return;
      const Micros now = sim.now();
      if (last_pass != kNoTime) out.per_hop.add(now - last_pass);
      last_pass = now;
      if (i != 0) return;
      if (last_at_n0 != kNoTime) out.rotation.add(now - last_at_n0);
      last_at_n0 = now;
    });
  }
  for (auto& n : nodes) n->start();
  sim.run_for(100'000);  // ring formation
  timing = true;
  while (out.per_hop.count() < static_cast<std::size_t>(hops)) sim.run_for(100'000);
  return out;
}

constexpr int kIdleHops = 10'000;

TEST(PaperClaims, E9IdleTokenHopIsNearFiftyOneMicroseconds) {
  const RingTiming ring = idle_ring(kIdleHops);
  std::printf("E9 idle 4-node ring, seed 7, %zu hops: per-hop mode %lld us (claim 51 +- 10 us, "
              "paper [20] ~51 us), mean %.1f us, p99 %lld us; rotation mean %.1f us\n",
              ring.per_hop.count(), static_cast<long long>(ring.per_hop.mode_bin()),
              ring.per_hop.mean(), static_cast<long long>(ring.per_hop.percentile(0.99)),
              ring.rotation.mean());
  // [20]: "the peak probability density of the token passing time on our
  // testbed is approximately 51us".
  EXPECT_GE(ring.per_hop.mode_bin(), 41);
  EXPECT_LE(ring.per_hop.mode_bin(), 61);
}

// --- E1, E2: Figure 5 and the Section 4.3 CCS counts ------------------------

constexpr int kFig5Rmis = 10'000;

struct Fig5Run {
  Histogram latency{10, 3'000};
  std::vector<std::uint64_t> ccs_on_wire;  // per server
  std::uint64_t rounds = 0;
};

/// 10,000 RMIs from the unreplicated client on the ring leader to a 3-way
/// active time server that calls gettimeofday(); `with_cts` false serves
/// the servers' own clocks instead of the group clock.
Fig5Run fig5(bool with_cts) {
  TestbedConfig cfg;
  cfg.seed = 2003;
  if (!with_cts) cfg.factory = local_time_server_factory();
  Testbed tb(cfg);
  tb.start();

  Fig5Run out;
  bool done = false;
  auto client = [&]() -> sim::Task {
    for (int i = 0; i < kFig5Rmis; ++i) {
      const Micros t0 = tb.sim().now();
      (void)co_await tb.client().call(make_get_time_request());
      out.latency.add(tb.sim().now() - t0);
    }
    done = true;
  };
  client();
  EXPECT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    out.ccs_on_wire.push_back(tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs));
  }
  out.rounds = rounds_completed(tb);
  return out;
}

TEST(PaperClaims, E1E2CtsCostsUnderOneRotationAndOneCcsMessagePerRound) {
  const Fig5Run with = fig5(true);
  const Fig5Run without = fig5(false);
  const double rotation = idle_ring(kIdleHops).rotation.mean();
  const double overhead = with.latency.mean() - without.latency.mean();
  std::uint64_t wire = 0;
  for (const auto n : with.ccs_on_wire) wire += n;
  std::printf("E1 fig5 seed 2003, %d RMIs to a 3-way active time server: mean without CTS "
              "%.1f us, with CTS %.1f us, overhead %.1f us (claim > 0 and < one idle rotation, "
              "%.1f us; paper ~300 us) | E2 CCS on the wire %llu = %llu / %llu / %llu for %llu "
              "rounds, %.3f per round (claim 1 to 1.02; paper 1 / 9977 / 22)\n",
              kFig5Rmis, without.latency.mean(), with.latency.mean(), overhead, rotation,
              static_cast<unsigned long long>(wire),
              static_cast<unsigned long long>(with.ccs_on_wire[0]),
              static_cast<unsigned long long>(with.ccs_on_wire[1]),
              static_cast<unsigned long long>(with.ccs_on_wire[2]),
              static_cast<unsigned long long>(with.rounds),
              static_cast<double>(wire) / static_cast<double>(with.rounds));
  // Fig. 5: the CTS shifts the latency right by about one extra token
  // circulation.  Here the first replica whose round completes answers,
  // which hides part of the circulation, so the cost is under one.
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, rotation);
  // Section 4.3: duplicate suppression puts about one CCS message per
  // round on the wire, not one per replica.
  EXPECT_EQ(with.rounds, static_cast<std::uint64_t>(kFig5Rmis));
  EXPECT_GE(wire, with.rounds);
  EXPECT_LE(static_cast<double>(wire), 1.02 * static_cast<double>(with.rounds));
}

// --- E10: scalability in group size and in ring count ------------------------

struct RoundCost {
  double mean_us = 0;
  double ccs_per_round = 0;
};

/// Every server reads the group clock 500 times on one thread, 100 us
/// apart; the latency is timed at server 0.
RoundCost round_cost(std::size_t servers, ReplicationStyle style) {
  constexpr int kRounds = 500;
  TestbedConfig cfg;
  cfg.servers = servers;
  cfg.style = style;
  cfg.seed = 1234;
  Testbed tb(cfg);
  tb.start();

  Histogram lat(5, 10'000);
  std::size_t finished = 0;
  auto reader = [&](std::uint32_t s) -> sim::Task {
    auto& svc = tb.server(s).time_service();
    for (int i = 0; i < kRounds; ++i) {
      co_await tb.sim().delay(100);
      const Micros t0 = tb.sim().now();
      (void)co_await svc.get_time(ThreadId{5});
      if (s == 0) lat.add(tb.sim().now() - t0);
    }
    ++finished;
  };
  for (std::uint32_t s = 0; s < servers; ++s) reader(s);
  EXPECT_TRUE(run_until(tb, [&] { return finished == servers; }, 60'000'000));
  tb.sim().run_for(2'000'000);

  std::uint64_t wire = 0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
  }
  return {lat.mean(), static_cast<double>(wire) / kRounds};
}

TEST(PaperClaims, E10ActiveRoundsStayFlatAndSemiActiveRoundsGrowWithGroupSize) {
  std::vector<RoundCost> active, semi;
  for (const std::size_t n : {2u, 8u, 16u}) {
    active.push_back(round_cost(n, ReplicationStyle::kActive));
    semi.push_back(round_cost(n, ReplicationStyle::kSemiActive));
  }
  std::printf("E10 seed 1234, 500 rounds per cell: CCS round mean (us) and CCS/round at "
              "2 / 8 / 16 servers: active %.1f / %.1f / %.1f (%.3f / %.3f / %.3f), semi-active "
              "%.1f / %.1f / %.1f (%.3f / %.3f / %.3f); claim: active 16 <= 1.5 x 2, "
              "semi-active 16 >= 6 x 2, CCS/round 1 to 1.05\n",
              active[0].mean_us, active[1].mean_us, active[2].mean_us, active[0].ccs_per_round,
              active[1].ccs_per_round, active[2].ccs_per_round, semi[0].mean_us, semi[1].mean_us,
              semi[2].mean_us, semi[0].ccs_per_round, semi[1].ccs_per_round,
              semi[2].ccs_per_round);
  // Every active replica competes to propose, so some token visit is
  // always near; a single semi-active proposer waits for its own visit,
  // which takes longer the longer the ring.
  EXPECT_LE(active[2].mean_us, 1.5 * active[0].mean_us);
  EXPECT_GE(semi[2].mean_us, 6.0 * semi[0].mean_us);
  for (const RoundCost& c : {active[0], active[1], active[2], semi[0], semi[1], semi[2]}) {
    EXPECT_GE(c.ccs_per_round, 1.0);
    EXPECT_LE(c.ccs_per_round, 1.05);
  }
}

struct ShardSweep {
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t cross_shard = 0;
  std::string metrics;  // the merged metrics export
  std::uint64_t trace_digest = 0;
};

constexpr std::uint64_t kSweepSessions = 2'000'000;

/// The islands' trace rows, in island order, folded word by word into one
/// FNV-1a digest.  The merged trace export is a pure function of these
/// rows; rendering it would mean about 100 MB of JSON at 16 rings.
std::uint64_t trace_digest(const std::vector<obs::Recorder*>& recs) {
  std::uint64_t h = fnv1a64({});
  auto fold = [&h](std::uint64_t w) { h = (h ^ w) * 1099511628211ull; };
  for (const obs::Recorder* rec : recs) {
    for (const obs::TraceEvent& e : rec->trace().events()) {
      fold(static_cast<std::uint64_t>(e.at));
      fold(static_cast<std::uint64_t>(e.kind) << 32 | e.node);
      fold(e.replica);
      fold(static_cast<std::uint64_t>(e.a));
      fold(static_cast<std::uint64_t>(e.b));
      fold(static_cast<std::uint64_t>(e.c));
    }
  }
  return h;
}

/// `rings` rings of 6 session-manager replicas.  Each ring bulk-loads its
/// share of two million sessions (OPEN_MANY: one id round and one clock
/// round per 100k sessions), opens 8 sessions one by one, touches and
/// queries them, and migrates 2 of them to the next ring.
ShardSweep shard_sweep(std::size_t rings, unsigned threads) {
  ArchipelagoConfig cfg;
  cfg.topo = TopologySpec{rings, 6, /*with_client=*/true};
  cfg.seed = 77;
  cfg.threads = threads;
  cfg.app = [](const ShardMap& map, std::size_t ring) {
    SessionManagerApp::Options sopt;
    sopt.shard_map = &map;
    sopt.ring = ring;
    return session_manager_factory(sopt);
  };
  Archipelago ar(cfg);
  ar.start();

  // Per-ring slots: with island workers, each ring's coroutine runs on its
  // island's thread.
  std::vector<std::uint64_t> ops(rings, 0);
  std::vector<std::uint8_t> done(rings, 0);
  auto worker = [&](std::size_t r) -> sim::Task {
    auto& tb = ar.ring(r);
    for (std::uint64_t left = kSweepSessions / rings; left > 0;) {
      const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(left, 100'000));
      (void)co_await tb.client().call(session_open_many(n, 3'600'000'000LL));
      left -= n;
      ++ops[r];
    }
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
      const Bytes rep = co_await tb.client().call(session_open(600'000'000));
      ids.push_back(SessionReply::parse(rep).session_id);
      ++ops[r];
    }
    for (std::size_t i = 0; i < 16; ++i) {
      (void)co_await tb.client().call(session_touch(ids[i % ids.size()]));
      (void)co_await tb.client().call(session_query(ids[(i + 3) % ids.size()]));
      ops[r] += 2;
    }
    if (rings > 1) {
      for (std::size_t i = 0; i < 2; ++i) {
        (void)co_await tb.client().call(
            session_migrate(ids[i], static_cast<std::uint32_t>((r + 1) % rings)));
        ++ops[r];
      }
    }
    (void)co_await tb.client().call(session_count());
    ++ops[r];
    done[r] = 1;
  };
  for (std::size_t r = 0; r < rings; ++r) worker(r);
  const Micros deadline = ar.now() + 600'000'000LL;
  auto all_done = [&] { return std::count(done.begin(), done.end(), 0) == 0; };
  while (!all_done() && ar.now() < deadline) ar.run_until(ar.now() + 1'000'000);
  ar.run_for(2'000'000);
  EXPECT_TRUE(all_done()) << "the session workload did not finish";

  ShardSweep out;
  for (std::size_t r = 0; r < rings; ++r) {
    out.ops += ops[r];
    Testbed& tb = ar.ring(r);
    const auto& app0 = static_cast<const SessionManagerApp&>(tb.server(0).app());
    out.sessions += app0.live_sessions();
    out.handoffs += app0.handoffs_out();
    if (const auto* orc = tb.recorder().oracle()) out.cross_shard += orc->cross_shard_violations();
  }
  const auto recs = ar.recorders();
  out.metrics = obs::merged_metrics_json(recs);
  out.trace_digest = trace_digest(recs);
  return out;
}

TEST(PaperClaims, E10ShardSweepHandsOffWithoutCrossShardViolations) {
  for (const std::size_t rings : {1u, 4u, 16u}) {
    const ShardSweep serial = shard_sweep(rings, 1);
    const ShardSweep parallel = shard_sweep(rings, 4);
    const bool identical =
        serial.metrics == parallel.metrics && serial.trace_digest == parallel.trace_digest;
    std::printf("E10 shard sweep seed 77, 6 replicas per ring, %2zu rings: %llu sessions, "
                "%llu ops, %llu handoffs (claim 2 per ring past 1), cross_shard %llu, "
                "serial == 4 workers: %s\n",
                rings, static_cast<unsigned long long>(serial.sessions),
                static_cast<unsigned long long>(serial.ops),
                static_cast<unsigned long long>(serial.handoffs),
                static_cast<unsigned long long>(serial.cross_shard), identical ? "yes" : "NO");
    // Every session opened is live somewhere; each ring migrated two.
    EXPECT_EQ(serial.sessions, kSweepSessions + 8 * rings);
    EXPECT_EQ(serial.handoffs, rings > 1 ? 2 * rings : 0);
    EXPECT_EQ(serial.cross_shard, 0u);
    EXPECT_EQ(parallel.cross_shard, 0u);
    EXPECT_TRUE(identical) << rings << " rings: the worker count changed the schedule";
  }
}

// --- E12: state transfer = fixed protocol cost + a wire term ------------------

struct Transfer {
  std::uint64_t fragments = 0;
  Micros transfer_us = 0;
  bool consistent = false;
};

/// Fill a 3-way active group with `entries` history entries, crash
/// replica 2, and time its rejoin through GET_STATE.
Transfer state_transfer(std::uint32_t entries) {
  TestbedConfig cfg;
  cfg.seed = 17;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};
  (void)call_and_wait(tb, make_burst_request(entries), 600'000'000);
  tb.sim().run_for(1'000'000);
  tb.crash_server(2);
  tb.sim().run_for(2'000'000);

  auto fragments_sent = [&] {
    return tb.gcs_of(tb.server_node(0)).stats().fragments_sent +
           tb.gcs_of(tb.server_node(1)).stats().fragments_sent;
  };
  const std::uint64_t frags_before = fragments_sent();
  const Micros t0 = tb.sim().now();
  Micros recovered_at = kNoTime;
  tb.restart_server(2, [&] { recovered_at = tb.sim().now(); });
  EXPECT_TRUE(run_until(tb, [&] { return recovered_at != kNoTime; }, 600'000'000));
  tb.sim().run_for(2'000'000);

  Transfer out;
  out.fragments = fragments_sent() - frags_before;
  out.transfer_us = recovered_at - t0;
  out.consistent = tb.server_app(2).time_history() == tb.server_app(0).time_history();
  return out;
}

TEST(PaperClaims, E12StateTransferIsAFixedCostPlusAWireTerm) {
  const Transfer small = state_transfer(100);
  const Transfer large = state_transfer(20'000);
  std::printf("E12 state transfer, seed 17, replica 2 of 3 rejoins: 100 entries %llu fragments "
              "%lld us; 20000 entries %llu fragments %lld us (claim >= 5 x the 100-entry time); "
              "consistent: %s\n",
              static_cast<unsigned long long>(small.fragments),
              static_cast<long long>(small.transfer_us),
              static_cast<unsigned long long>(large.fragments),
              static_cast<long long>(large.transfer_us),
              small.consistent && large.consistent ? "yes" : "NO");
  // A small checkpoint fits in one message; a large one is fragmented and
  // its bytes, serialised through one NIC, dominate the protocol cost.
  EXPECT_EQ(small.fragments, 0u);
  EXPECT_GT(large.fragments, 0u);
  EXPECT_GE(large.transfer_us, 5 * small.transfer_us);
  EXPECT_TRUE(small.consistent);
  EXPECT_TRUE(large.consistent);
}

// --- E13: what the group clock costs an application -----------------------------

struct AppCost {
  double mean_us = 0;
  std::uint64_t rounds = 0;
};

constexpr int kAppOps = 1'000;

/// 1,000 KV requests against 3 replicas: get/put alternating, or lease
/// acquires (`lease`), 200 us apart.
AppCost kv_cost(bool lease, ReplicationStyle style) {
  TestbedConfig cfg;
  cfg.seed = 99;
  cfg.style = style;
  if (style == ReplicationStyle::kPassive) cfg.checkpoint_every = 50;
  cfg.factory = kv_store_factory();
  Testbed tb(cfg);
  tb.start();

  Histogram lat(10, 20'000);
  bool done = false;
  auto client = [&]() -> sim::Task {
    for (int i = 0; i < kAppOps; ++i) {
      co_await tb.sim().delay(200);
      const std::string key = std::to_string(i % 16);
      const auto owner = 1 + static_cast<std::uint64_t>(i % 3);
      Bytes req = lease     ? kv_acquire("lock" + key, owner, 5'000)
                  : (i % 2) ? kv_get("key" + key)
                            : kv_put("key" + key, "value");
      const Micros t0 = tb.sim().now();
      (void)co_await tb.client().call(std::move(req));
      lat.add(tb.sim().now() - t0);
    }
    done = true;
  };
  client();
  EXPECT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  tb.sim().run_for(2'000'000);
  return {lat.mean(), rounds_completed(tb)};
}

TEST(PaperClaims, E13ClockFreeOpsUseNoRoundAndAcquiresUseOne) {
  for (const auto style :
       {ReplicationStyle::kActive, ReplicationStyle::kSemiActive, ReplicationStyle::kPassive}) {
    const AppCost plain = kv_cost(false, style);
    const AppCost acquire = kv_cost(true, style);
    std::printf("E13 seed 99, %-11s %d ops: get/put mean %.1f us, %llu CCS rounds; acquire "
                "mean %.1f us (%+.1f us; claim %s), %llu CCS rounds\n",
                style_name(style), kAppOps, plain.mean_us,
                static_cast<unsigned long long>(plain.rounds), acquire.mean_us,
                acquire.mean_us - plain.mean_us,
                style == ReplicationStyle::kActive ? "<= 1.1 x get/put" : ">= +150 us",
                static_cast<unsigned long long>(acquire.rounds));
    EXPECT_EQ(plain.rounds, 0u) << style_name(style);
    // Lease expiry runs no round of its own: it rides on the acquire's.
    EXPECT_EQ(acquire.rounds, static_cast<std::uint64_t>(kAppOps)) << style_name(style);
    if (style == ReplicationStyle::kActive) {
      // The proposal competition hides the round's token wait.
      EXPECT_LE(acquire.mean_us, 1.1 * plain.mean_us);
    } else {
      // A single proposer pays for its own token visit.
      EXPECT_GE(acquire.mean_us, plain.mean_us + 150.0) << style_name(style);
    }
  }
}

// --- E14: the fault envelope inside the paper's reliable-channel model -------

TEST(PaperClaims, E14LossAndChurnLoseNoReplyAndBreakNoCheck) {
  struct Cell {
    double loss;
    bool churn;
  };
  for (const Cell c : {Cell{0.0, false}, Cell{0.01, false}, Cell{0.02, false},
                       Cell{0.05, false}, Cell{0.01, true}}) {
    ScenarioSpec spec;
    spec.invocations = 600;
    spec.seed = 31;
    spec.loss = c.loss;
    if (c.churn) {
      // Replica 2 crashes every 200 ms and restarts 50 ms later.
      for (Micros at = 350'000; at < 1'000'000; at += 200'000) {
        spec.faults.push_back({FaultEvent::Kind::kCrash, 2, at});
        spec.faults.push_back({FaultEvent::Kind::kRecover, 2, at + 50'000});
      }
    }
    const ScenarioResult r = run_scenario(spec);
    std::printf("E14 seed 31, loss %.0f%%%s: %llu/%d replies, %llu monotonicity violations, "
                "consistent: %s, ok: %s\n",
                100 * c.loss, c.churn ? " + churn (replica 2 down 50 ms of every 200 ms)" : "",
                static_cast<unsigned long long>(r.replies), spec.invocations,
                static_cast<unsigned long long>(r.monotonicity_violations),
                r.consistent ? "yes" : "NO", r.ok() ? "yes" : "NO");
    EXPECT_EQ(r.replies, static_cast<std::uint64_t>(spec.invocations));
    EXPECT_TRUE(r.ok()) << r.report;
  }
}

}  // namespace
}  // namespace cts::app
