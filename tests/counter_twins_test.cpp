// The two counting paths agree: every registry counter that has a per-node
// stats twin (TotemStats, GcsStats, NetworkStats, CtsStats, ManagerStats)
// equals the sum of its twins over the island, on fault-free runs where no
// endpoint or manager is rebuilt (a rebuild starts fresh stats while the
// registry keeps counting).  And a bare network records with no wiring.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "net/network.hpp"
#include "testbed_util.hpp"
#include "totem/totem.hpp"

namespace cts::app {
namespace {

void expect_counters_match_stats(Testbed& tb) {
  const obs::MetricsRegistry& m = tb.recorder().metrics();
  const std::uint32_t nodes =
      static_cast<std::uint32_t>(tb.server_count()) + (tb.config().with_client ? 1 : 0);

  auto totem = [&](std::uint64_t totem::TotemStats::*field) {
    std::uint64_t sum = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) sum += tb.totem_of(n).stats().*field;
    return sum;
  };
  EXPECT_GT(m.value("totem.token_passes"), 0u);
  EXPECT_EQ(m.value("totem.token_passes"), totem(&totem::TotemStats::tokens_received));
  EXPECT_EQ(m.value("totem.token_retransmissions"),
            totem(&totem::TotemStats::token_retransmissions));
  EXPECT_EQ(m.value("totem.msgs_retransmitted"), totem(&totem::TotemStats::msgs_retransmitted));
  EXPECT_EQ(m.value("totem.msgs_delivered"), totem(&totem::TotemStats::msgs_delivered));
  EXPECT_EQ(m.value("totem.ring_changes"), totem(&totem::TotemStats::membership_changes));
  EXPECT_EQ(m.value("totem.window_stalls"), totem(&totem::TotemStats::window_stalls));
  EXPECT_EQ(m.value("totem.batch_frames_sent"), totem(&totem::TotemStats::batch_frames_sent));

  const net::NetworkStats& ns = tb.net().stats();
  EXPECT_EQ(m.value("net.packets_sent"), ns.packets_sent);
  EXPECT_EQ(m.value("net.packets_delivered"), ns.packets_delivered);
  EXPECT_EQ(m.value("net.packets_dropped"), ns.packets_dropped);
  EXPECT_EQ(m.value("net.packets_corrupted"), ns.packets_corrupted);

  // GcsStats count per message type; type 0 is unused.
  auto gcs = [&](std::uint64_t (gcs::GcsStats::*field)[16], std::size_t lo, std::size_t hi) {
    std::uint64_t sum = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::size_t t = lo; t <= hi; ++t) sum += (tb.gcs_of(n).stats().*field)[t];
    }
    return sum;
  };
  EXPECT_GT(m.value("gcs.delivered"), 0u);
  EXPECT_EQ(m.value("gcs.delivered"), gcs(&gcs::GcsStats::delivered, 1, gcs::kMsgTypes));
  EXPECT_EQ(m.value("gcs.duplicates_dropped"),
            gcs(&gcs::GcsStats::duplicates_dropped, 1, gcs::kMsgTypes));
  EXPECT_EQ(m.value("gcs.sent_cancelled"), gcs(&gcs::GcsStats::sent_cancelled, 1, gcs::kMsgTypes));
  for (std::size_t t = 1; t <= gcs::kMsgTypes; ++t) {
    const std::string name =
        std::string("gcs.delivered.") + gcs::to_string(static_cast<gcs::MsgType>(t));
    EXPECT_EQ(m.value(name), gcs(&gcs::GcsStats::delivered, t, t)) << name;
  }

  auto cts = [&](std::uint64_t ccs::CtsStats::*field) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      sum += tb.server(s).time_service().stats().*field;
    }
    return sum;
  };
  EXPECT_GT(m.value("cts.rounds_completed"), 0u);
  EXPECT_EQ(m.value("cts.rounds_completed"), cts(&ccs::CtsStats::rounds_completed));
  EXPECT_EQ(m.value("cts.rounds_won"), cts(&ccs::CtsStats::rounds_won));
  EXPECT_EQ(m.value("cts.sends_initiated"), cts(&ccs::CtsStats::sends_initiated));
  EXPECT_EQ(m.value("cts.sends_avoided"), cts(&ccs::CtsStats::sends_avoided));
  EXPECT_EQ(m.value("cts.duplicates_dropped"), cts(&ccs::CtsStats::duplicates_dropped));
  EXPECT_EQ(m.value("cts.reentrant_rejected"), cts(&ccs::CtsStats::reentrant_rejected));

  auto repl = [&](std::uint64_t replication::ManagerStats::*field) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) sum += tb.server(s).stats().*field;
    return sum;
  };
  EXPECT_EQ(m.value("repl.checkpoints_taken"), repl(&replication::ManagerStats::checkpoints_taken));
  EXPECT_EQ(m.value("repl.checkpoints_applied"),
            repl(&replication::ManagerStats::checkpoints_applied));
  EXPECT_EQ(m.value("repl.checkpoints_rejected"),
            repl(&replication::ManagerStats::checkpoints_rejected));
  EXPECT_EQ(m.value("repl.promotions"), repl(&replication::ManagerStats::promotions));
  EXPECT_EQ(m.value("repl.state_transfers_served"),
            repl(&replication::ManagerStats::state_transfers_served));
}

TEST(CounterTwinsTest, FaultFreeActiveTestbed) {
  Testbed tb(TestbedConfig{});
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 200, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 200; }, 10'000'000));
  expect_counters_match_stats(tb);
}

TEST(CounterTwinsTest, FaultFreePassiveTestbedCountsCheckpoints) {
  TestbedConfig cfg;
  cfg.style = replication::ReplicationStyle::kPassive;
  cfg.checkpoint_every = 10;
  Testbed tb(cfg);
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 200, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 200; }, 10'000'000));
  EXPECT_GT(tb.recorder().metrics().value("repl.checkpoints_taken"), 0u);
  expect_counters_match_stats(tb);
}

// `ctsim --topology 2x3 --kv` in miniature: each ring's gateway leases keys
// of both rings (a lease reads the group clock), so some requests cross the
// link; every ring's registry matches that ring's stats.
TEST(CounterTwinsTest, ShardedKvArchipelagoPerRing) {
  ArchipelagoConfig cfg;
  cfg.topo.rings = 2;
  cfg.topo.servers = 3;
  cfg.app = [](const ShardMap& map, std::size_t ring) {
    return kv_store_factory({.shard_map = &map, .ring = ring});
  };
  Archipelago ar(cfg);
  ar.start();
  int answered = 0;
  for (std::size_t r = 0; r < ar.ring_count(); ++r) {
    for (int k = 0; k < 16; ++k) {
      ar.ring(r).sim().at(500'000 + 40'000 * k, [&ar, &answered, r, k] {
        const auto owner = static_cast<std::uint64_t>(k) + 1;
        ar.router(r).route(kv_acquire("k" + std::to_string(k), owner, 1'000'000),
                           [&answered](const Bytes&) { ++answered; });
      });
    }
  }
  ar.run_until(3'000'000);
  EXPECT_EQ(answered, 32);
  EXPECT_GT(ar.ring(0).recorder().metrics().value("gateway.forwards"), 0u);
  for (std::size_t r = 0; r < ar.ring_count(); ++r) {
    SCOPED_TRACE("ring " + std::to_string(r));
    expect_counters_match_stats(ar.ring(r));
  }
}

// Totem nodes on a bare network count into the network's recorder with no
// Testbed and no wiring call.
TEST(CounterTwinsTest, BareNetworkRecordsWithoutWiring) {
  sim::Simulator sim(5);
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < 3; ++i) tcfg.universe.push_back(NodeId{i});
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  for (std::uint32_t i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->start();
  }
  sim.run_for(200'000);
  std::uint64_t tokens = 0;
  for (const auto& n : nodes) tokens += n->stats().tokens_received;
  EXPECT_GT(tokens, 0u);
  EXPECT_EQ(net.recorder().metrics().value("totem.token_passes"), tokens);
  EXPECT_EQ(net.recorder().trace().count(obs::EventKind::kTokenPass), tokens);
  EXPECT_EQ(net.recorder().metrics().value("net.packets_sent"), net.stats().packets_sent);
}

}  // namespace
}  // namespace cts::app
