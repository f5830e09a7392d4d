// Tests for stable-message discard in the Totem store: a node erases every
// message the token's aru shows all members hold (and that it has already
// delivered), so a long-lived ring keeps only its in-flight window.  The
// tests check the bound, that loss recovery, crash recovery and safe
// delivery never need a discarded message, and that a retransmission
// request below the discard floor is reported rather than absorbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::totem {
namespace {

Bytes msg(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// A ring of TotemNodes that records each node's delivery sequence and
/// notes which nodes handled a token during the last simulator step, so a
/// test can inspect a node's store right after its token visit.
struct Ring {
  sim::Simulator sim;
  net::Network net;
  TotemConfig tcfg;
  std::vector<std::unique_ptr<TotemNode>> nodes;
  std::map<std::uint32_t, std::vector<std::string>> delivered;
  std::vector<bool> visited;
  std::size_t max_stored_after_visit = 0;

  Ring(std::size_t n, net::NetworkConfig ncfg, std::uint64_t seed) : sim(seed), net(sim, ncfg) {
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    visited.assign(n, false);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<TotemNode>(sim, net, NodeId{i}, tcfg);
      node->set_deliver_handler([this, i](NodeId, const SharedBytes& b) {
        delivered[i].emplace_back(b.begin(), b.end());
      });
      node->set_token_observer([this, i] { visited[i] = true; });
      nodes.push_back(std::move(node));
    }
    for (auto& node : nodes) node->start();
  }

  [[nodiscard]] bool all_operational() const {
    return std::all_of(nodes.begin(), nodes.end(), [](const auto& n) {
      return n->state() == TotemNode::State::kDown ||
             n->state() == TotemNode::State::kOperational;
    });
  }

  /// Step the simulator until `until` (simulated us) or `done()`, running
  /// `check` after every step and recording each visited node's store size
  /// once its token visit has completed.
  template <typename Done, typename Check>
  void run(Micros until, Done done, Check check) {
    while (sim.now() < until && !done()) {
      if (!sim.step()) break;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!visited[i]) continue;
        visited[i] = false;
        max_stored_after_visit = std::max(max_stored_after_visit, nodes[i]->stored());
      }
      check();
    }
  }

  [[nodiscard]] bool all_delivered(std::size_t n) {
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (delivered[i].size() < n) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t sum(std::uint64_t TotemStats::*field) const {
    std::uint64_t total = 0;
    for (const auto& n : nodes) total += n->stats().*field;
    return total;
  }
};

TEST(TotemDiscardTest, LossFreeRingKeepsOnlyTheInFlightWindow) {
  Ring r(4, {}, 1);
  r.sim.run_for(100'000);  // ring formation
  ASSERT_TRUE(r.all_operational());
  constexpr int kPerNode = 5'000;  // 20k multicasts in all
  for (int k = 0; k < kPerNode; ++k) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      r.nodes[i]->multicast(msg(std::to_string(i) + "." + std::to_string(k)));
    }
  }
  const auto bound = static_cast<std::size_t>(2 * r.tcfg.window_per_rotation);
  r.run(60'000'000, [&] { return r.all_delivered(4u * kPerNode); }, [] {});
  ASSERT_TRUE(r.all_delivered(4u * kPerNode));
  EXPECT_LE(r.max_stored_after_visit, bound);
  EXPECT_GT(r.max_stored_after_visit, 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.delivered[i], r.delivered[0]) << "node " << i;
    // Without discard the store would hold all 20k messages.
    EXPECT_GE(r.nodes[i]->stats().msgs_discarded, 4u * kPerNode - bound) << "node " << i;
    EXPECT_EQ(r.nodes[i]->stats().rtr_below_floor, 0u) << "node " << i;
  }
  // Once the ring goes idle, two more rotations make everything stable.
  r.sim.run_for(50'000);
  for (auto& n : r.nodes) {
    EXPECT_EQ(n->stored(), 0u);
    EXPECT_EQ(n->stats().msgs_discarded, 4u * kPerNode);
  }
  EXPECT_EQ(r.sum(&TotemStats::membership_changes), 4u);  // formation only
}

TEST(TotemDiscardTest, LossyRingRetransmitsOnlyAboveTheFloor) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.05;
  Ring r(4, ncfg, 5);
  r.sim.run_for(200'000);
  constexpr int kPerNode = 500;
  for (int k = 0; k < kPerNode; ++k) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      r.nodes[i]->multicast(msg(std::to_string(i) + "." + std::to_string(k)));
    }
  }
  const auto all_done = [&] { return r.all_delivered(4u * kPerNode); };
  r.run(60'000'000, all_done, [] {});
  ASSERT_TRUE(all_done());
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(r.delivered[i], r.delivered[0]) << "node " << i << " diverged";
  }
  EXPECT_GT(r.sum(&TotemStats::msgs_retransmitted), 0u);
  EXPECT_GT(r.sum(&TotemStats::msgs_discarded), 0u);
  EXPECT_EQ(r.sum(&TotemStats::rtr_below_floor), 0u);
  // Loss holds the aru back for a rotation or two; the store still stays
  // within a few rotation windows, far below the 2,000 messages sent.
  EXPECT_LE(r.max_stored_after_visit, static_cast<std::size_t>(4 * r.tcfg.window_per_rotation));
}

TEST(TotemDiscardTest, SurvivorsRecoverIdenticallyAfterAMidStreamCrash) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.02;
  Ring r(4, ncfg, 9);
  r.sim.run_for(200'000);
  constexpr int kPerNode = 400;
  for (int k = 0; k < kPerNode; ++k) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      r.nodes[i]->multicast(msg(std::to_string(i) + "." + std::to_string(k)));
    }
  }
  // Crash node 2 once the ring has discarded a good part of the stream.
  r.run(
      60'000'000, [&] { return r.nodes[0]->stats().msgs_discarded >= 600; }, [] {});
  ASSERT_GE(r.nodes[0]->stats().msgs_discarded, 600u);
  r.nodes[2]->crash();
  const auto survivors_done = [&] {
    for (std::uint32_t i : {0u, 1u, 3u}) {
      if (r.nodes[i]->state() != TotemNode::State::kOperational ||
          r.nodes[i]->view().members.size() != 3 || r.nodes[i]->queued() != 0) {
        return false;
      }
    }
    return true;
  };
  r.run(60'000'000, survivors_done, [] {});
  ASSERT_TRUE(survivors_done());
  r.sim.run_for(200'000);  // drain the last rotations
  EXPECT_EQ(r.delivered[1], r.delivered[0]);
  EXPECT_EQ(r.delivered[3], r.delivered[0]);
  // Every survivor's own stream arrived whole.
  for (std::uint32_t s : {0u, 1u, 3u}) {
    const auto n = std::count_if(r.delivered[0].begin(), r.delivered[0].end(), [s](const auto& m) {
      return m.rfind(std::to_string(s) + ".", 0) == 0;
    });
    EXPECT_EQ(n, kPerNode) << "sender " << s;
  }
  EXPECT_EQ(r.sum(&TotemStats::rtr_below_floor), 0u);
}

TEST(TotemDiscardTest, SafeMessagesAreNeverDiscardedBeforeDelivery) {
  net::NetworkConfig ncfg;
  ncfg.loss_probability = 0.03;
  Ring r(3, ncfg, 13);
  r.sim.run_for(200'000);
  constexpr int kPerNode = 300;
  for (int k = 0; k < kPerNode; ++k) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      // Every third message is safe-class: it, and everything sequenced
      // after it, waits for the two-rotation aru confirmation.
      const auto dc = (k + static_cast<int>(i)) % 3 == 0 ? DeliveryClass::kSafe
                                                        : DeliveryClass::kAgreed;
      r.nodes[i]->multicast(msg(std::to_string(i) + "." + std::to_string(k)), dc);
    }
  }
  const auto all_done = [&] { return r.all_delivered(3u * kPerNode); };
  std::uint64_t violations = 0;
  r.run(60'000'000, all_done, [&] {
    // Within one ring the discard floor is msgs_discarded and the delivered
    // prefix is msgs_delivered: the floor must never pass the prefix.
    for (const auto& n : r.nodes) {
      if (n->stats().msgs_discarded > n->stats().msgs_delivered) ++violations;
    }
  });
  ASSERT_TRUE(all_done());
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(r.sum(&TotemStats::membership_changes), 3u);  // one ring throughout
  EXPECT_GT(r.sum(&TotemStats::msgs_discarded), 0u);
  EXPECT_EQ(r.delivered[1], r.delivered[0]);
  EXPECT_EQ(r.delivered[2], r.delivered[0]);
}

// FNV-1a over data[from..), the sealed-envelope checksum.
std::uint32_t envelope_checksum(const Bytes& data, std::size_t from) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = from; i < data.size(); ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

Bytes forge_token(RingId ring, std::uint64_t token_seq, TotemSeq seq,
                  const std::vector<TotemSeq>& rtr) {
  BytesWriter w;
  w.u32(0x544f544d);  // "TOTM"
  w.u32(0);           // checksum, patched below
  w.u8(1);            // kToken
  w.u64(ring);
  w.u64(token_seq);
  w.u64(seq);
  w.u64(seq);           // aru: everything received
  w.u32(NodeId{}.value);  // no aru setter
  w.u32(0);             // fcc
  w.u32(static_cast<std::uint32_t>(rtr.size()));
  for (TotemSeq s : rtr) w.u64(s);
  Bytes packet = std::move(w).take();
  store_u32le(packet.data() + 4, envelope_checksum(packet, 8));
  return packet;
}

TEST(TotemDiscardTest, RtrBelowTheFloorIsReportedAndNotServed) {
  Ring r(3, {}, 3);
  r.sim.run_for(100'000);
  constexpr int kMsgs = 50;
  for (int k = 0; k < kMsgs; ++k) r.nodes[0]->multicast(msg("m" + std::to_string(k)));
  r.sim.run_for(100'000);  // deliver, then idle until everything is stable
  TotemNode& target = *r.nodes[1];
  ASSERT_EQ(r.delivered[1].size(), static_cast<std::size_t>(kMsgs));
  ASSERT_EQ(target.stored(), 0u);
  ASSERT_EQ(target.stats().msgs_discarded, static_cast<std::uint64_t>(kMsgs));

  const NodeId injector{99};
  r.net.attach(injector, [](NodeId, const SharedBytes&) {});
  const TotemStats before = target.stats();
  // A token that supersedes the ring's own (higher token_seq) and asks for
  // seqs 1 and 7, long since discarded everywhere.
  r.net.send(injector, target.id(), forge_token(target.view().ring_id, 1'000'000, kMsgs, {1, 7}));
  // One lap: the ring's own token dies at the target as stale.
  r.sim.run_for(1'000);
  EXPECT_EQ(target.stats().rtr_below_floor, before.rtr_below_floor + 2);
  EXPECT_EQ(target.stats().msgs_retransmitted, before.msgs_retransmitted);

  // The entries were dropped, not circulated: nobody else counts them, and
  // the ring carries on delivering.
  r.nodes[2]->multicast(msg("after"));
  r.sim.run_for(100'000);
  EXPECT_EQ(r.nodes[0]->stats().rtr_below_floor, 0u);
  EXPECT_EQ(r.nodes[2]->stats().rtr_below_floor, 0u);
  EXPECT_EQ(target.stats().rtr_below_floor, before.rtr_below_floor + 2);
  EXPECT_EQ(r.sum(&TotemStats::msgs_retransmitted), 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(r.delivered[i].size(), static_cast<std::size_t>(kMsgs + 1)) << "node " << i;
    EXPECT_EQ(r.delivered[i].back(), "after");
  }
}

}  // namespace
}  // namespace cts::totem
