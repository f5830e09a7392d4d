// Robustness and fidelity tests:
//   * Totem safe delivery (two-rotation aru confirmation),
//   * GCS large-message fragmentation,
//   * fuzzed crash/restart schedules with agreement invariants,
//   * re-enactments of the paper's Figure 1 (local clocks diverge) and
//     Figure 4 (the offset arithmetic of the worked example),
//   * codec fuzzing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/testbed.hpp"
#include "common/rng.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts {
namespace {

// ===========================================================================
// Totem safe delivery
// ===========================================================================

struct TotemRig {
  sim::Simulator sim{1};
  net::Network net;
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  std::vector<std::vector<std::pair<std::string, Micros>>> delivered;  // (msg, time)

  explicit TotemRig(std::size_t n) : net(sim, {}) {
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    delivered.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
      nodes.back()->set_deliver_handler([this, i](NodeId, const SharedBytes& b) {
        delivered[i].emplace_back(std::string(b.begin(), b.end()), sim.now());
      });
    }
    for (auto& nd : nodes) nd->start();
    sim.run_for(100'000);
  }

  static Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }
};

TEST(SafeDeliveryTest, SafeMessageIsDelivered) {
  TotemRig rig(3);
  rig.nodes[0]->multicast(TotemRig::msg("safe1"), totem::DeliveryClass::kSafe);
  rig.sim.run_for(500'000);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(rig.delivered[i].size(), 1u) << "node " << i;
    EXPECT_EQ(rig.delivered[i][0].first, "safe1");
  }
}

TEST(SafeDeliveryTest, SafeCostsExtraTokenRotations) {
  TotemRig rig(3);
  // Measure agreed latency.
  rig.nodes[0]->multicast(TotemRig::msg("agreed"));
  const Micros t0 = rig.sim.now();
  rig.sim.run_for(500'000);
  const Micros agreed_latency = rig.delivered[1][0].second - t0;

  // Measure safe latency from the same quiescent state.
  const Micros t1 = rig.sim.now();
  rig.nodes[0]->multicast(TotemRig::msg("safe"), totem::DeliveryClass::kSafe);
  rig.sim.run_for(500'000);
  const Micros safe_latency = rig.delivered[1][1].second - t1;

  // Safe needs the aru to confirm over two further rotations.
  EXPECT_GT(safe_latency, agreed_latency + 100);
}

TEST(SafeDeliveryTest, SafeDoesNotReorderTotalOrder) {
  TotemRig rig(3);
  // Interleave safe and agreed messages from several senders.
  for (int k = 0; k < 10; ++k) {
    rig.nodes[k % 3]->multicast(TotemRig::msg("m" + std::to_string(k)),
                                k % 2 ? totem::DeliveryClass::kSafe
                                      : totem::DeliveryClass::kAgreed);
  }
  rig.sim.run_for(2'000'000);
  ASSERT_EQ(rig.delivered[0].size(), 10u);
  for (std::uint32_t i = 1; i < 3; ++i) {
    ASSERT_EQ(rig.delivered[i].size(), 10u);
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(rig.delivered[i][k].first, rig.delivered[0][k].first)
          << "node " << i << " diverged at " << k;
    }
  }
}

TEST(SafeDeliveryTest, PendingSafeFlushedOnMembershipChange) {
  TotemRig rig(3);
  rig.nodes[0]->multicast(TotemRig::msg("pre"), totem::DeliveryClass::kSafe);
  rig.sim.run_for(500'000);
  ASSERT_EQ(rig.delivered[1].size(), 1u);

  // Queue a safe message and crash a node before the aru can confirm it
  // twice; survivors must still deliver it (transitionally) at the
  // configuration change rather than wedging the total order.
  rig.nodes[0]->multicast(TotemRig::msg("racing"), totem::DeliveryClass::kSafe);
  rig.sim.after(100, [&] { rig.nodes[2]->crash(); });
  rig.sim.run_for(3'000'000);
  bool n0 = false, n1 = false;
  for (auto& [m, t] : rig.delivered[0]) n0 |= (m == "racing");
  for (auto& [m, t] : rig.delivered[1]) n1 |= (m == "racing");
  EXPECT_TRUE(n0);
  EXPECT_TRUE(n1);
}

// ===========================================================================
// GCS fragmentation
// ===========================================================================

struct GcsRig {
  sim::Simulator sim{1};
  net::Network net;
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;

  explicit GcsRig(std::size_t n) : net(sim, {}) {
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
      eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
    }
    for (auto& t : totems) t->start();
    sim.run_for(100'000);
  }
};

gcs::Message big_message(MsgSeqNum seq, std::size_t size, std::uint8_t fill) {
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kState;
  m.hdr.src_grp = GroupId{1};
  m.hdr.dst_grp = GroupId{2};
  m.hdr.conn = ConnectionId{9};
  m.hdr.tag = ThreadId{0};
  m.hdr.seq = seq;
  m.hdr.sender_replica = ReplicaId{0};
  // Stage in a mutable buffer (the payload view is immutable), non-uniform
  // so reassembly order errors are detectable.
  Bytes body(size, fill);
  for (std::size_t i = 0; i < size; ++i) body[i] = static_cast<std::uint8_t>(i * 31 + fill);
  m.payload = std::move(body);
  return m;
}

TEST(FragmentationTest, LargePayloadRoundTripsIntact) {
  GcsRig rig(2);
  std::vector<gcs::Message> got;
  rig.eps[1]->subscribe(GroupId{2}, [&](const gcs::Message& m) { got.push_back(m); });
  const auto original = big_message(1, 100'000, 7);  // ~72 fragments
  rig.eps[0]->send(original);
  rig.sim.run_for(5'000'000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].hdr.type, gcs::MsgType::kState);
  EXPECT_EQ(got[0].hdr.seq, 1u);
  EXPECT_EQ(got[0].payload, original.payload);
  EXPECT_GT(rig.eps[0]->stats().fragments_sent, 60u);
  EXPECT_GT(rig.eps[1]->stats().fragments_received, 60u);
}

TEST(FragmentationTest, SmallPayloadIsNotFragmented) {
  GcsRig rig(2);
  rig.eps[0]->send(big_message(1, 100, 3));
  rig.sim.run_for(1'000'000);
  EXPECT_EQ(rig.eps[0]->stats().fragments_sent, 0u);
}

TEST(FragmentationTest, InterleavedLargeMessagesFromDifferentSenders) {
  GcsRig rig(3);
  std::vector<gcs::Message> got;
  rig.eps[2]->subscribe(GroupId{2}, [&](const gcs::Message& m) { got.push_back(m); });
  auto m0 = big_message(1, 40'000, 1);
  auto m1 = big_message(2, 40'000, 2);
  m1.hdr.conn = ConnectionId{10};  // distinct stream
  rig.eps[0]->send(m0);
  rig.eps[1]->send(m1);
  rig.sim.run_for(10'000'000);
  ASSERT_EQ(got.size(), 2u);
  // Each reassembled intact, regardless of interleaving on the ring.
  for (const auto& m : got) {
    if (m.hdr.conn == ConnectionId{9}) {
      EXPECT_EQ(m.payload, m0.payload);
    }
    if (m.hdr.conn == ConnectionId{10}) {
      EXPECT_EQ(m.payload, m1.payload);
    }
  }
}

TEST(FragmentationTest, DuplicateLargeMessageSuppressed) {
  GcsRig rig(3);
  int deliveries = 0;
  rig.eps[2]->subscribe(GroupId{2}, [&](const gcs::Message&) { ++deliveries; });
  // Two "replicas" send the same logical large message.
  auto a = big_message(5, 30'000, 9);
  auto b = big_message(5, 30'000, 9);
  rig.eps[0]->send(a);
  rig.eps[1]->send(b);
  rig.sim.run_for(10'000'000);
  EXPECT_EQ(deliveries, 1);
}

TEST(FragmentationTest, RecoveryWithLargeCheckpointWorks) {
  // Enough history that the checkpoint spans many fragments.
  app::TestbedConfig cfg;
  app::Testbed tb(cfg);
  tb.start();
  bool burst_done = false;
  tb.client().invoke(app::make_burst_request(2'000), [&](const Bytes&) { burst_done = true; });
  while (!burst_done) tb.sim().run_until(tb.sim().now() + 1'000'000);

  tb.crash_server(2);
  tb.sim().run_for(2'000'000);
  bool recovered = false;
  tb.restart_server(2, [&] { recovered = true; });
  const Micros deadline = tb.sim().now() + 300'000'000;
  while (!recovered && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 10'000);
  ASSERT_TRUE(recovered);
  tb.sim().run_for(2'000'000);
  // The 2000-reading history (~16KB checkpoint) arrived intact.
  EXPECT_EQ(tb.server_app(2).time_history(), tb.server_app(0).time_history());
  EXPECT_GT(tb.gcs_of(tb.server_node(0)).stats().fragments_sent +
                tb.gcs_of(tb.server_node(1)).stats().fragments_sent,
            0u);
  // Fail-stop tripwire: the crashed replica never read its clock while dead.
  EXPECT_EQ(tb.clock_of(tb.server_node(2)).reads_after_failure(), 0u);
}

// ===========================================================================
// Fuzzed fault schedules
// ===========================================================================

struct FuzzParam {
  std::uint64_t seed;
};

class TotemFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(TotemFuzz, NeverCrashedNodesAgreeUnderRandomFaults) {
  const auto seed = GetParam().seed;
  Rng fuzz(seed);
  constexpr std::size_t kNodes = 5;

  sim::Simulator sim(seed);
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.01;
  net::Network net(sim, ncfg);
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < kNodes; ++i) tcfg.universe.push_back(NodeId{i});

  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  std::vector<std::vector<std::string>> delivered(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->set_deliver_handler([&delivered, i](NodeId, const SharedBytes& b) {
      delivered[i].push_back(std::string(b.begin(), b.end()));
    });
  }
  for (auto& n : nodes) n->start();
  sim.run_for(100'000);

  // Nodes 0 and 1 never crash; 2..4 crash and restart at random times.
  int sent = 0;
  for (int step = 0; step < 60; ++step) {
    sim.run_for(fuzz.range(1'000, 40'000));
    const auto dice = fuzz.below(10);
    if (dice < 2) {
      // Crash a random crashable node that is up.
      const auto victim = 2 + fuzz.below(3);
      if (nodes[victim]->state() != totem::TotemNode::State::kDown) {
        nodes[victim]->crash();
      }
    } else if (dice < 4) {
      const auto victim = 2 + fuzz.below(3);
      if (nodes[victim]->state() == totem::TotemNode::State::kDown) {
        nodes[victim]->restart();
      }
    } else {
      // Multicast from a random live stable node.
      const auto s = fuzz.below(2);
      const std::string body = "m" + std::to_string(sent++);
      nodes[s]->multicast(Bytes(body.begin(), body.end()));
    }
  }
  // Bring everyone back and let the system settle.
  for (std::uint32_t i = 2; i < kNodes; ++i) {
    if (nodes[i]->state() == totem::TotemNode::State::kDown) nodes[i]->restart();
  }
  sim.run_for(30'000'000);

  // Invariant: nodes that never crashed delivered identical sequences.
  EXPECT_EQ(delivered[0], delivered[1]) << "seed " << seed;
  // Invariant: nothing was delivered twice at a stable node.
  std::set<std::string> uniq(delivered[0].begin(), delivered[0].end());
  EXPECT_EQ(uniq.size(), delivered[0].size()) << "seed " << seed;
  // Invariant: everything a stable node sent was eventually delivered
  // (stable nodes were always in the primary component).
  EXPECT_EQ(delivered[0].size(), static_cast<std::size_t>(sent)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TotemFuzz,
                         ::testing::Values(FuzzParam{101}, FuzzParam{102}, FuzzParam{103},
                                           FuzzParam{104}, FuzzParam{105}, FuzzParam{106},
                                           FuzzParam{107}, FuzzParam{108}),
                         [](const ::testing::TestParamInfo<FuzzParam>& i) {
                           return "seed" + std::to_string(i.param.seed);
                         });

// ===========================================================================
// Figure 1 & Figure 4 re-enactments
// ===========================================================================

TEST(PaperFigureTest, Figure1LocalClocksDivergeReplicaState) {
  // Figure 1 / Section 4.2: without the consistent time service, "replica
  // consistency of the server for this operation cannot be guaranteed".
  app::TestbedConfig cfg;
  cfg.factory = app::local_time_server_factory();
  cfg.max_clock_offset_us = 300'000;
  app::Testbed tb(cfg);
  tb.start();
  bool done = false;
  tb.client().invoke(app::make_burst_request(50), [&](const Bytes&) { done = true; });
  while (!done) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  auto& a0 = static_cast<app::TimeServerApp&>(tb.server(0).app());
  auto& a1 = static_cast<app::TimeServerApp&>(tb.server(1).app());
  ASSERT_EQ(a0.time_history().size(), 50u);
  ASSERT_EQ(a1.time_history().size(), 50u);
  // The histories MUST diverge: different hardware clocks, different
  // processing times.
  EXPECT_NE(a0.time_history(), a1.time_history());
}

TEST(PaperFigureTest, Figure4OffsetArithmetic) {
  // The worked example of Section 3.4: after every round, each replica's
  // offset equals (group clock − its own physical reading), and the next
  // winner's proposal equals its physical reading plus that offset.
  app::TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = 4;
  app::Testbed tb(cfg);

  struct Obs {
    std::vector<ccs::RoundResult> rounds;
  };
  std::vector<Obs> obs(3);
  for (std::uint32_t s = 0; s < 3; ++s) {
    tb.server(s).time_service().set_round_observer(
        [&obs, s](const ccs::RoundResult& rr) { obs[s].rounds.push_back(rr); });
  }
  tb.start();
  bool done = false;
  tb.client().invoke(app::make_burst_request(30), [&](const Bytes&) { done = true; });
  while (!done) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_EQ(obs[s].rounds.size(), 30u);
    for (std::size_t k = 0; k < 30; ++k) {
      const auto& rr = obs[s].rounds[k];
      // offset = gc − pc (Figure 2 line 7; re-derived every round).
      EXPECT_EQ(rr.offset_after, rr.group_clock - rr.physical_clock);
      // All replicas agree on the round's group clock and winner.
      EXPECT_EQ(rr.group_clock, obs[0].rounds[k].group_clock);
      EXPECT_EQ(rr.winner_replica, obs[0].rounds[k].winner_replica);
    }
    // Winner validity: when this replica won, the group value is exactly
    // its proposal pc + previous offset.
    for (std::size_t k = 1; k < 30; ++k) {
      const auto& rr = obs[s].rounds[k];
      if (rr.winner_replica == ReplicaId{s} && rr.i_sent) {
        const auto& prev = obs[s].rounds[k - 1];
        EXPECT_EQ(rr.group_clock, rr.physical_clock + prev.offset_after);
      }
    }
  }
}

// ===========================================================================
// Codec fuzzing
// ===========================================================================

TEST(CodecFuzzTest, RandomHeadersRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    gcs::Message m;
    m.hdr.type = static_cast<gcs::MsgType>(1 + rng.below(8));
    m.hdr.src_grp = GroupId{static_cast<std::uint32_t>(rng.next())};
    m.hdr.dst_grp = GroupId{static_cast<std::uint32_t>(rng.next())};
    m.hdr.conn = ConnectionId{static_cast<std::uint32_t>(rng.next())};
    m.hdr.tag = ThreadId{static_cast<std::uint32_t>(rng.next())};
    m.hdr.seq = rng.next();
    m.hdr.sender_replica = ReplicaId{static_cast<std::uint32_t>(rng.next())};
    m.hdr.sender_node = NodeId{static_cast<std::uint32_t>(rng.next())};
    Bytes body(rng.below(200));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    m.payload = std::move(body);

    const auto d = gcs::GcsEndpoint::decode(gcs::GcsEndpoint::encode(m));
    EXPECT_EQ(d.hdr.seq, m.hdr.seq);
    EXPECT_EQ(d.hdr.conn, m.hdr.conn);
    EXPECT_EQ(d.payload, m.payload);
  }
}

TEST(CodecFuzzTest, RandomGarbageNeverCrashesDecode) {
  Rng rng(77);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)gcs::GcsEndpoint::decode(junk);
      ++parsed;
    } catch (const CodecError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed + rejected, 2000);
}

TEST(CodecFuzzTest, GarbagePacketsDoNotCrashTheProtocolStack) {
  GcsRig rig(2);
  Rng rng(55);
  // Inject raw garbage straight into the network, addressed at node 1.
  for (int i = 0; i < 200; ++i) {
    Bytes junk(1 + rng.below(40));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    rig.net.send(NodeId{0}, NodeId{1}, junk);
  }
  rig.sim.run_for(1'000'000);
  // The stack survives and still works.
  std::vector<gcs::Message> got;
  rig.eps[1]->subscribe(GroupId{2}, [&](const gcs::Message& m) { got.push_back(m); });
  rig.eps[0]->send(big_message(1, 100, 1));
  rig.sim.run_for(1'000'000);
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace cts
