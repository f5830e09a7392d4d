// Tests for the Totem single-ring protocol: ring formation, total order,
// loss recovery, token retransmission, membership changes, partitions, and
// the primary-component model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::totem {
namespace {

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string str(const SharedBytes& b) { return std::string(b.begin(), b.end()); }

/// A cluster of TotemNodes over one simulated LAN, with per-node delivery
/// and view logs.
struct Cluster {
  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<TotemNode>> nodes;
  std::map<std::uint32_t, std::vector<std::string>> delivered;
  std::map<std::uint32_t, std::vector<View>> views;

  explicit Cluster(std::size_t n, net::NetworkConfig ncfg = {}, TotemConfig tcfg = {},
                   std::uint64_t seed = 1)
      : sim(seed), net(sim, ncfg) {
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<TotemNode>(sim, net, NodeId{i}, tcfg);
      node->set_deliver_handler(
          [this, i](NodeId, const SharedBytes& b) { delivered[i].push_back(str(b)); });
      node->set_view_handler([this, i](const View& v) { views[i].push_back(v); });
      nodes.push_back(std::move(node));
    }
  }

  void start_all() {
    for (auto& n : nodes) n->start();
  }

  /// Run until every live node is operational in the same primary ring whose
  /// membership is exactly the set of live nodes.
  bool converge(Micros budget = 200'000) {
    std::vector<NodeId> live;
    for (auto& n : nodes) {
      if (n->state() != TotemNode::State::kDown) live.push_back(n->id());
    }
    const Micros deadline = sim.now() + budget;
    while (sim.now() < deadline) {
      sim.run_until(sim.now() + 1000);
      RingId ring = 0;
      bool ok = true;
      for (auto& n : nodes) {
        if (n->state() == TotemNode::State::kDown) continue;
        if (n->state() != TotemNode::State::kOperational || !n->view().primary ||
            n->view().members != live) {
          ok = false;
          break;
        }
        if (ring == 0) ring = n->view().ring_id;
        if (n->view().ring_id != ring) ok = false;
      }
      if (ok && ring != 0) return true;
    }
    return false;
  }
};

TEST(TotemRingTest, FourNodesFormOneRing) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->view().members.size(), 4u);
    EXPECT_TRUE(n->view().primary);
    EXPECT_EQ(n->view().members.front(), NodeId{0});  // lowest id is leader
  }
}

TEST(TotemRingTest, SingletonUniverseFormsSingletonRing) {
  Cluster c(1);
  c.start_all();
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.nodes[0]->view().members.size(), 1u);
}

TEST(TotemRingTest, AllMembersInstallSameView) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  const auto& v0 = c.nodes[0]->view();
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->view().ring_id, v0.ring_id);
    EXPECT_EQ(n->view().members, v0.members);
  }
}

TEST(TotemOrderTest, SingleSenderDeliveredEverywhereInOrder) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) c.nodes[0]->multicast(msg("m" + std::to_string(i)));
  c.sim.run_for(100'000);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.delivered[i].size(), 20u) << "node " << i;
    for (int j = 0; j < 20; ++j) EXPECT_EQ(c.delivered[i][j], "m" + std::to_string(j));
  }
}

TEST(TotemOrderTest, ConcurrentSendersAgreeOnOneTotalOrder) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 25; ++i) {
    for (std::uint32_t n = 0; n < 4; ++n) {
      c.nodes[n]->multicast(msg("n" + std::to_string(n) + "." + std::to_string(i)));
    }
  }
  c.sim.run_for(300'000);
  ASSERT_EQ(c.delivered[0].size(), 100u);
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.delivered[i], c.delivered[0]) << "node " << i << " diverged from node 0";
  }
}

TEST(TotemOrderTest, SenderOrderPreservedWithinEachSender) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 30; ++i) c.nodes[1]->multicast(msg("a" + std::to_string(i)));
  c.sim.run_for(200'000);
  // Extract node 1's messages from node 2's delivery order.
  std::vector<std::string> mine;
  for (const auto& s : c.delivered[2]) {
    if (s[0] == 'a') mine.push_back(s);
  }
  ASSERT_EQ(mine.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(mine[i], "a" + std::to_string(i));
}

TEST(TotemOrderTest, SelfDeliveryIncluded) {
  Cluster c(2);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[1]->multicast(msg("hello"));
  c.sim.run_for(50'000);
  ASSERT_EQ(c.delivered[1].size(), 1u);
  EXPECT_EQ(c.delivered[1][0], "hello");
}

TEST(TotemLossTest, TotalOrderSurvivesPacketLoss) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.05;
  Cluster c(4, ncfg);
  c.start_all();
  ASSERT_TRUE(c.converge(2'000'000));
  for (int i = 0; i < 50; ++i) {
    for (std::uint32_t n = 0; n < 4; ++n) {
      c.nodes[n]->multicast(msg("n" + std::to_string(n) + "." + std::to_string(i)));
    }
  }
  c.sim.run_for(5'000'000);
  // All four must deliver the same sequence; retransmissions fill the gaps.
  EXPECT_GE(c.delivered[0].size(), 200u);
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.delivered[i], c.delivered[0]);
  }
}

TEST(TotemLossTest, RetransmissionsActuallyHappen) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.10;
  Cluster c(3, ncfg);
  c.start_all();
  ASSERT_TRUE(c.converge(2'000'000));
  for (int i = 0; i < 100; ++i) c.nodes[0]->multicast(msg("x" + std::to_string(i)));
  c.sim.run_for(5'000'000);
  std::uint64_t retrans = 0, token_retrans = 0;
  for (auto& n : c.nodes) {
    retrans += n->stats().msgs_retransmitted;
    token_retrans += n->stats().token_retransmissions;
  }
  EXPECT_GT(retrans + token_retrans, 0u);
  EXPECT_EQ(c.delivered[1], c.delivered[0]);
}

TEST(TotemMembershipTest, CrashShrinksTheRing) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[3]->crash();
  c.net.set_down(NodeId{3}, true);
  ASSERT_TRUE(c.converge(1'000'000));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.nodes[i]->view().members.size(), 3u);
    EXPECT_TRUE(c.nodes[i]->view().primary);  // 3 of 4 is a majority
  }
}

TEST(TotemMembershipTest, LeaderCrashElectsNewRing) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[0]->crash();
  ASSERT_TRUE(c.converge(1'000'000));
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->view().members.front(), NodeId{1});
    EXPECT_EQ(c.nodes[i]->view().members.size(), 3u);
  }
}

TEST(TotemMembershipTest, MessagesFlowAfterMembershipChange) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[2]->crash();
  ASSERT_TRUE(c.converge(1'000'000));
  c.nodes[0]->multicast(msg("after-crash"));
  c.sim.run_for(100'000);
  for (std::uint32_t i : {0u, 1u, 3u}) {
    ASSERT_FALSE(c.delivered[i].empty());
    EXPECT_EQ(c.delivered[i].back(), "after-crash");
  }
}

TEST(TotemMembershipTest, RestartedNodeRejoins) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[1]->crash();
  ASSERT_TRUE(c.converge(1'000'000));
  c.nodes[1]->restart();
  ASSERT_TRUE(c.converge(1'000'000));
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->view().members.size(), 3u);
  }
}

TEST(TotemMembershipTest, RejoinedNodeReceivesNewTraffic) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.nodes[2]->crash();
  ASSERT_TRUE(c.converge(1'000'000));
  c.nodes[2]->restart();
  ASSERT_TRUE(c.converge(1'000'000));
  c.nodes[0]->multicast(msg("welcome-back"));
  c.sim.run_for(100'000);
  ASSERT_FALSE(c.delivered[2].empty());
  EXPECT_EQ(c.delivered[2].back(), "welcome-back");
}

TEST(TotemMembershipTest, ViewChangeCallbacksFire) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  const auto before = c.views[0].size();
  c.nodes[1]->crash();
  ASSERT_TRUE(c.converge(1'000'000));
  EXPECT_GT(c.views[0].size(), before);
  EXPECT_EQ(c.views[0].back().members.size(), 2u);
}

TEST(TotemPartitionTest, MinorityComponentIsNotPrimary) {
  Cluster c(5);
  c.start_all();
  ASSERT_TRUE(c.converge());
  // 2-node minority vs 3-node majority.
  c.net.partition({{NodeId{0}, NodeId{1}}, {NodeId{2}, NodeId{3}, NodeId{4}}});
  c.sim.run_for(1'000'000);
  // Majority side: operational + primary.
  for (std::uint32_t i : {2u, 3u, 4u}) {
    EXPECT_EQ(c.nodes[i]->state(), TotemNode::State::kOperational) << i;
    EXPECT_TRUE(c.nodes[i]->view().primary) << i;
    EXPECT_EQ(c.nodes[i]->view().members.size(), 3u);
  }
  // Minority side: forms a ring but is not primary.
  for (std::uint32_t i : {0u, 1u}) {
    if (c.nodes[i]->state() == TotemNode::State::kOperational) {
      EXPECT_FALSE(c.nodes[i]->view().primary) << i;
    }
  }
}

TEST(TotemPartitionTest, MinorityCannotMulticast) {
  Cluster c(5);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.net.partition({{NodeId{0}, NodeId{1}}, {NodeId{2}, NodeId{3}, NodeId{4}}});
  c.sim.run_for(1'000'000);
  const auto delivered_before = c.delivered[0].size();
  c.nodes[0]->multicast(msg("stuck"));
  c.sim.run_for(500'000);
  // The message stays queued: a non-primary component must not deliver new
  // messages (primary-component model, paper Section 2).
  EXPECT_EQ(c.delivered[0].size(), delivered_before);
  EXPECT_GE(c.nodes[0]->queued(), 1u);
}

TEST(TotemPartitionTest, HealMergesAndFlushesQueuedMessages) {
  Cluster c(5);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.net.partition({{NodeId{0}, NodeId{1}}, {NodeId{2}, NodeId{3}, NodeId{4}}});
  c.sim.run_for(1'000'000);
  c.nodes[0]->multicast(msg("queued-in-minority"));
  c.nodes[2]->multicast(msg("sent-in-majority"));
  c.sim.run_for(500'000);
  c.net.heal();
  // Traffic from the majority ring is "foreign" to the minority and
  // triggers the merge.
  c.nodes[2]->multicast(msg("post-heal"));
  ASSERT_TRUE(c.converge(3'000'000));
  c.sim.run_for(1'000'000);
  // After the merge the queued minority message finally flows to everyone.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(c.delivered[i].empty()) << i;
    bool saw = false;
    for (const auto& s : c.delivered[i]) saw |= (s == "queued-in-minority");
    EXPECT_TRUE(saw) << "node " << i << " missed the queued minority message";
  }
}

TEST(TotemPartitionTest, HealedPartitionMergesWithoutAnyTraffic) {
  // Regression: merging used to require application traffic to expose the
  // foreign ring; the minority's periodic seek-Join now does it alone.
  Cluster c(5);
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.net.partition({{NodeId{0}, NodeId{1}}, {NodeId{2}, NodeId{3}, NodeId{4}}});
  c.sim.run_for(1'000'000);
  c.net.heal();
  // Nobody multicasts anything; the merge must still happen.
  ASSERT_TRUE(c.converge(3'000'000));
  for (auto& n : c.nodes) {
    EXPECT_EQ(n->view().members.size(), 5u);
    EXPECT_TRUE(n->view().primary);
  }
}

TEST(TotemCancelTest, QueuedMessageCanBeCancelled) {
  Cluster c(3);
  // Don't start: the queue drains only on token visits, so messages stay
  // queued while the ring forms.
  auto h = c.nodes[0]->multicast(msg("never"));
  EXPECT_TRUE(c.nodes[0]->cancel(h));
  c.start_all();
  ASSERT_TRUE(c.converge());
  c.sim.run_for(200'000);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_TRUE(c.delivered[i].empty());
}

TEST(TotemCancelTest, CancelAfterSendFails) {
  Cluster c(2);
  c.start_all();
  ASSERT_TRUE(c.converge());
  auto h = c.nodes[0]->multicast(msg("sent"));
  c.sim.run_for(100'000);
  EXPECT_FALSE(c.nodes[0]->cancel(h));
  EXPECT_EQ(c.delivered[1].size(), 1u);
}

TEST(TotemCancelTest, CancelDuringATokenVisitSplitsAtTheBatchBoundary) {
  // A token visit drains the queue into one batch frame and then
  // self-delivers; a delivery callback may reenter cancel().  The batch
  // boundary is the commit point: batch-mates are already on the wire
  // (cancel fails), messages queued behind the frame are not (cancel
  // succeeds), and neither kind may be delivered twice or leak.
  totem::TotemConfig tcfg;
  tcfg.max_messages_per_token = 2;  // m0,m1 ride this visit; m2 stays queued
  Cluster c(1, {}, tcfg);
  c.start_all();
  ASSERT_TRUE(c.converge());
  auto& n = *c.nodes[0];
  std::uint64_t h1 = 0, h2 = 0;
  std::vector<std::string> got;
  bool cancelled_mate = true, cancelled_queued = false;
  n.set_deliver_handler([&](NodeId, const SharedBytes& b) {
    got.push_back(str(b));
    if (got.size() == 1) {
      cancelled_mate = n.cancel(h1);    // batch-mate: committed to the wire
      cancelled_queued = n.cancel(h2);  // behind the batch: still queued
    }
  });
  n.multicast(msg("m0"));
  h1 = n.multicast(msg("m1"));
  h2 = n.multicast(msg("m2"));
  c.sim.run_for(100'000);
  EXPECT_FALSE(cancelled_mate);
  EXPECT_TRUE(cancelled_queued);
  EXPECT_EQ(got, (std::vector<std::string>{"m0", "m1"}));
  EXPECT_EQ(n.queued(), 0u);
  EXPECT_EQ(n.stats().msgs_cancelled, 1u);
  EXPECT_EQ(n.stats().msgs_multicast, 2u);
  EXPECT_GE(n.stats().batch_frames_sent, 1u);
}

// --- Malformed-packet robustness -----------------------------------------------
//
// An attacker (or a flaky NIC) can put arbitrary datagrams on the wire; the
// envelope check must reject them before any field is parsed, and a valid
// envelope around a truncated body must fail through BytesReader's explicit
// CodecError path — never an out-of-bounds read.  Each test asserts WHERE
// its packets died (packets_rejected_envelope vs packets_rejected_body): a
// forged body that only died at the checksum would test nothing.

// Seal `body` with the production envelope checksum, so the tests can forge
// packets with a *valid* envelope but a malformed body.
Bytes forge_sealed(const Bytes& body) {
  constexpr std::uint32_t kMagic = 0x544f544d;  // "TOTM"
  Bytes packet(8 + body.size(), 0);
  std::copy(body.begin(), body.end(), packet.begin() + 8);
  store_u32le(packet.data(), kMagic);
  store_u32le(packet.data() + 4, envelope_checksum(packet));
  return packet;
}

struct InjectionFixture {
  Cluster c{3};
  const NodeId injector{99};

  InjectionFixture() {
    c.start_all();
    EXPECT_TRUE(c.converge());
    c.net.attach(injector, [](NodeId, const SharedBytes&) {});
  }

  void inject(const Bytes& packet) {
    for (std::uint32_t i = 0; i < 3; ++i) c.net.send(injector, NodeId{i}, packet);
    c.sim.run_for(10'000);
  }

  /// Every node dropped exactly `envelope` injected packets at the envelope
  /// check and `body` in the body parser (each injection reaches all three).
  void expect_rejected(std::uint64_t envelope, std::uint64_t body) {
    for (auto& n : c.nodes) {
      EXPECT_EQ(n->stats().packets_rejected_envelope, envelope) << to_string(n->id());
      EXPECT_EQ(n->stats().packets_rejected_body, body) << to_string(n->id());
    }
  }

  /// The ring must still form, order, and deliver after the injection.
  void expect_ring_still_healthy() {
    const auto before = c.delivered[1].size();
    c.nodes[0]->multicast(msg("still-alive"));
    c.sim.run_for(100'000);
    ASSERT_EQ(c.delivered[1].size(), before + 1);
    EXPECT_EQ(c.delivered[1].back(), "still-alive");
    for (auto& n : c.nodes) EXPECT_EQ(n->state(), TotemNode::State::kOperational);
  }
};

TEST(TotemRobustnessTest, ShortPacketsAreRejected) {
  InjectionFixture f;
  f.inject(Bytes{});                    // empty datagram
  f.inject(Bytes{0x4d});                // 1 byte
  f.inject(Bytes{1, 2, 3, 4, 5, 6, 7});  // 7 bytes: one short of the envelope
  f.expect_rejected(3, 0);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, ForeignMagicIsRejected) {
  InjectionFixture f;
  Bytes junk(64, 0xab);  // plausible length, wrong magic
  f.inject(junk);
  f.expect_rejected(1, 0);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, BitFlippedPacketFailsTheChecksum) {
  InjectionFixture f;
  Bytes packet = forge_sealed(msg("payload-bytes"));
  packet.back() ^= 0x01;  // corrupt one bit of the body
  f.inject(packet);
  f.expect_rejected(1, 0);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, ValidEnvelopeTruncatedBodyIsDropped) {
  InjectionFixture f;
  // Correctly sealed packets whose bodies lie about their contents: a bare
  // mcast type byte with no fields, and an mcast whose payload length prefix
  // claims far more bytes than follow.  Both must die in CodecError, not UB.
  f.inject(forge_sealed(Bytes{2}));  // MsgType::kMcast, then nothing
  BytesWriter w;
  w.u8(2);          // kMcast
  w.u64(1);         // ring_id
  w.u64(5);         // seq
  w.u32(0);         // sender
  w.boolean(false); // recovery
  w.u8(0);          // delivery class
  w.u32(100'000);   // payload length prefix with no payload behind it
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 2);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, TruncatedTokenDoesNotStallTheRing) {
  InjectionFixture f;
  // A sealed token whose rtr count is huge but whose body ends immediately.
  BytesWriter w;
  w.u8(1);                // kToken
  w.u64(1);               // ring_id
  w.u64(999);             // token_seq
  w.u64(0);               // seq
  w.u64(0);               // aru
  w.u32(0);               // aru_setter
  w.u32(0);               // fcc
  w.u32(0xffffffffu);     // rtr count: lies
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, TrailingGarbageAfterAValidMcastIsRejected) {
  InjectionFixture f;
  const RingId ring_before = f.c.nodes[0]->view().ring_id;
  // A structurally complete mcast followed by one extra byte.  The envelope
  // checksum covers the garbage, so the seal verifies — only exact-length
  // body framing can reject it.  If the prefix were accepted, the foreign
  // ring id would send the whole cluster back into Gather.
  BytesWriter w;
  w.u8(2);           // kMcast
  w.u64(1);          // foreign ring_id
  w.u64(5);          // seq
  w.u32(9);          // sender
  w.boolean(false);  // recovery
  w.u8(0);           // kAgreed
  w.u32(3);          // payload length
  w.u8(7), w.u8(8), w.u8(9);
  w.u8(0xee);        // trailing garbage
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  EXPECT_EQ(f.c.nodes[0]->view().ring_id, ring_before) << "garbage packet disturbed the ring";
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, TrailingGarbageAfterAValidBatchIsRejected) {
  InjectionFixture f;
  const RingId ring_before = f.c.nodes[0]->view().ring_id;
  BytesWriter w;
  w.u8(5);           // kBatch
  w.u64(1);          // foreign ring_id
  w.boolean(false);  // recovery
  w.u32(1);          // count: one entry...
  w.u64(7);          // seq
  w.u32(9);          // sender
  w.u8(0);           // kAgreed
  w.u32(2);          // payload length
  w.u8(1), w.u8(2);
  w.u8(0xee);        // ...but bytes left over after the last entry
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  EXPECT_EQ(f.c.nodes[0]->view().ring_id, ring_before);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, BatchCountLyingBeyondTheBodyIsRejected) {
  InjectionFixture f;
  // The frame claims two entries but carries only one: the parser must die
  // in CodecError on the missing second entry, never read past the buffer.
  BytesWriter w;
  w.u8(5);           // kBatch
  w.u64(1);          // ring_id
  w.boolean(false);  // recovery
  w.u32(2);          // count lies
  w.u64(7);          // entry 1: seq
  w.u32(9);          // sender
  w.u8(0);           // kAgreed
  w.u32(0);          // empty payload
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, InvalidDeliveryClassIsRejected) {
  InjectionFixture f;
  // Delivery class 7 names no guarantee; accepting it would put an
  // unclassifiable message into the store.  Both the single-message and
  // the batched encodings must reject it.
  BytesWriter m;
  m.u8(2);           // kMcast
  m.u64(1);
  m.u64(5);
  m.u32(9);
  m.boolean(false);
  m.u8(7);           // bogus delivery class
  m.u32(0);
  f.inject(forge_sealed(std::move(m).take()));
  BytesWriter b;
  b.u8(5);           // kBatch
  b.u64(1);
  b.boolean(false);
  b.u32(1);
  b.u64(7);
  b.u32(9);
  b.u8(7);           // bogus delivery class inside a batch entry
  b.u32(0);
  f.inject(forge_sealed(std::move(b).take()));
  f.expect_rejected(0, 2);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, UnknownMessageTypeIsRejected) {
  InjectionFixture f;
  BytesWriter w;
  w.u8(9);  // no such MsgType
  w.u64(1);
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, TrailingGarbageAfterAValidTokenIsRejected) {
  InjectionFixture f;
  const RingId ring = f.c.nodes[0]->view().ring_id;
  // A forged token for the CURRENT ring with a huge token_seq would, if
  // accepted, hijack token circulation; the trailing byte must kill it.
  BytesWriter w;
  w.u8(1);           // kToken
  w.u64(ring);
  w.u64(1u << 30);   // token_seq far ahead
  w.u64(0);          // seq
  w.u64(0);          // aru
  w.u32(0);          // aru_setter
  w.u32(0);          // fcc
  w.u32(0);          // rtr count
  w.u8(0xee);        // trailing garbage
  f.inject(forge_sealed(std::move(w).take()));
  f.expect_rejected(0, 1);
  f.expect_ring_still_healthy();
}

TEST(TotemRobustnessTest, InFlightBitFlipsDieAtTheEnvelope) {
  // One random bit of 2% of all packets flips in flight.  The envelope
  // checksum must catch every one of them — none may reach the body parser
  // — and the ring must still deliver one sequence everywhere, under an
  // ordering oracle that stays silent.
  net::NetworkConfig ncfg;
  ncfg.corrupt_probability = 0.02;
  Cluster c(3, ncfg);
  obs::Recorder rec(c.sim);
  obs::OrderingOracle& orc = rec.enable_oracle(/*abort_on_violation=*/false);
  for (std::uint32_t i = 0; i < 3; ++i) {
    TotemNode& n = *c.nodes[i];
    n.set_view_handler([&c, &orc, i, &n](const View& v) {
      c.views[i].push_back(v);
      orc.on_view_installed(n.id(), v.ring_id, v.members);
    });
    n.set_deliver_handler([&c, &orc, i, &n](NodeId sender, const SharedBytes& b) {
      c.delivered[i].push_back(str(b));
      // Payload "m<k>": message k, one stream for the whole ring.
      orc.on_gcs_deliver(n.id(), GroupId{1}, ConnectionId{1}, 0, ThreadId{0},
                         std::stoull(str(b).substr(1)), sender, b.span());
    });
  }
  c.start_all();
  ASSERT_TRUE(c.converge());
  constexpr int kMsgs = 300;
  for (int k = 0; k < kMsgs; ++k) {
    c.nodes[static_cast<std::size_t>(k) % 3]->multicast(msg("m" + std::to_string(k)));
    c.sim.run_for(1'000);
  }
  c.sim.run_for(500'000);

  std::uint64_t envelope = 0;
  for (auto& n : c.nodes) {
    envelope += n->stats().packets_rejected_envelope;
    EXPECT_EQ(n->stats().packets_rejected_body, 0u) << to_string(n->id());
  }
  EXPECT_GT(c.net.stats().packets_corrupted, 0u);
  EXPECT_GT(envelope, 0u);
  ASSERT_EQ(c.delivered[0].size(), static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(c.delivered[1], c.delivered[0]);
  EXPECT_EQ(c.delivered[2], c.delivered[0]);
  EXPECT_GT(orc.checks_run(), 0u);
  EXPECT_EQ(orc.violations(), 0u)
      << (orc.violation_log().empty() ? std::string() : orc.violation_log().front().detail);
}

TEST(TotemStatsTest, TokensCirculateWhileIdle) {
  Cluster c(4);
  c.start_all();
  ASSERT_TRUE(c.converge());
  const auto before = c.nodes[1]->stats().tokens_received;
  c.sim.run_for(100'000);
  EXPECT_GT(c.nodes[1]->stats().tokens_received, before + 10);
}

TEST(TotemStatsTest, MulticastCountsMessagesOnTheWire) {
  Cluster c(3);
  c.start_all();
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 7; ++i) c.nodes[1]->multicast(msg("m"));
  c.sim.run_for(100'000);
  EXPECT_EQ(c.nodes[1]->stats().msgs_multicast, 7u);
  EXPECT_EQ(c.nodes[0]->stats().msgs_multicast, 0u);
}

TEST(TotemFlowControlTest, RotationWindowCapsAFloodingSender) {
  totem::TotemConfig tcfg;
  tcfg.max_messages_per_token = 32;  // per-visit cap alone would allow 32
  tcfg.window_per_rotation = 16;     // ...but the rotation window says 16
  Cluster c(4, {}, tcfg);
  c.start_all();
  ASSERT_TRUE(c.converge());

  // Node 0 floods 400 messages at once.
  for (int i = 0; i < 400; ++i) c.nodes[0]->multicast(msg("f" + std::to_string(i)));

  // Count deliveries at node 1 between consecutive token receipts there:
  // never more than the rotation window (plus the odd boundary effect).
  std::vector<std::size_t> per_rotation;
  std::size_t last_count = c.delivered[1].size();
  c.nodes[1]->set_token_observer([&] {
    per_rotation.push_back(c.delivered[1].size() - last_count);
    last_count = c.delivered[1].size();
  });
  c.sim.run_for(3'000'000);
  ASSERT_EQ(c.delivered[1].size(), 400u);  // everything still arrives
  std::size_t max_burst = 0;
  for (auto n : per_rotation) max_burst = std::max(max_burst, n);
  EXPECT_LE(max_burst, 17u);  // never beyond the rotation window
  // The flooder is further capped at its fair share (window/members = 4).
  EXPECT_GE(max_burst, 4u);
}

TEST(TotemFlowControlTest, WindowSharedFairlyAmongSenders) {
  totem::TotemConfig tcfg;
  tcfg.max_messages_per_token = 32;
  tcfg.window_per_rotation = 16;
  Cluster c(3, {}, tcfg);
  c.start_all();
  ASSERT_TRUE(c.converge());
  // Two nodes flood simultaneously; both must make continuous progress.
  for (int i = 0; i < 150; ++i) {
    c.nodes[0]->multicast(msg("a" + std::to_string(i)));
    c.nodes[1]->multicast(msg("b" + std::to_string(i)));
  }
  c.sim.run_for(5'000'000);
  ASSERT_EQ(c.delivered[2].size(), 300u);
  // Check interleaving: within any 64 consecutive deliveries there is at
  // least one message from each sender (no long starvation).
  const auto& d = c.delivered[2];
  for (std::size_t start = 0; start + 64 <= d.size(); start += 64) {
    bool saw_a = false, saw_b = false;
    for (std::size_t i = start; i < start + 64; ++i) {
      saw_a |= d[i][0] == 'a';
      saw_b |= d[i][0] == 'b';
    }
    EXPECT_TRUE(saw_a && saw_b) << "starvation in window starting at " << start;
  }
}

TEST(TotemDeterminismTest, IdenticalSeedsProduceIdenticalDeliveries) {
  auto run = [](std::uint64_t seed) {
    Cluster c(4, {}, {}, seed);
    c.start_all();
    c.converge();
    for (int i = 0; i < 10; ++i) {
      for (std::uint32_t n = 0; n < 4; ++n) {
        c.nodes[n]->multicast(msg(std::to_string(n) + "." + std::to_string(i)));
      }
    }
    c.sim.run_for(300'000);
    return c.delivered[2];
  };
  EXPECT_EQ(run(7), run(7));
  // And different seeds may interleave differently (jitter draws differ) —
  // but both still produce 40 messages.
  EXPECT_EQ(run(8).size(), 40u);
}

// Property sweep: total order must hold across group sizes and loss rates.
struct OrderParam {
  std::size_t nodes;
  double loss;
  std::uint64_t seed;
};

class TotemOrderProperty : public ::testing::TestWithParam<OrderParam> {};

TEST_P(TotemOrderProperty, AllNodesDeliverSameSequence) {
  const auto p = GetParam();
  net::NetworkConfig ncfg;
  ncfg.loss_probability = p.loss;
  Cluster c(p.nodes, ncfg, {}, p.seed);
  c.start_all();
  ASSERT_TRUE(c.converge(3'000'000));
  for (int i = 0; i < 20; ++i) {
    for (std::uint32_t n = 0; n < p.nodes; ++n) {
      c.nodes[n]->multicast(msg(std::to_string(n) + "/" + std::to_string(i)));
    }
  }
  c.sim.run_for(5'000'000);
  ASSERT_EQ(c.delivered[0].size(), 20u * p.nodes);
  for (std::uint32_t i = 1; i < p.nodes; ++i) {
    EXPECT_EQ(c.delivered[i], c.delivered[0]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TotemOrderProperty,
    ::testing::Values(OrderParam{2, 0.0, 1}, OrderParam{3, 0.0, 2}, OrderParam{5, 0.0, 3},
                      OrderParam{8, 0.0, 4}, OrderParam{3, 0.02, 5}, OrderParam{4, 0.05, 6},
                      OrderParam{5, 0.02, 7}, OrderParam{4, 0.08, 8}),
    [](const ::testing::TestParamInfo<OrderParam>& param_info) {
      return "n" + std::to_string(param_info.param.nodes) + "_loss" +
             std::to_string(static_cast<int>(param_info.param.loss * 100)) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace cts::totem
