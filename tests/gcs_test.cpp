// Tests for the group communication layer: header codec, group views,
// ordered delivery, receiver-side duplicate detection, and sender-side
// duplicate suppression.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::gcs {
namespace {

Bytes pay(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string str(std::span<const std::uint8_t> b) { return std::string(b.begin(), b.end()); }

struct Cluster {
  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<GcsEndpoint>> eps;

  explicit Cluster(std::size_t n, std::uint64_t seed = 1) : sim(seed), net(sim, {}) {
    totem::TotemConfig tcfg;
    for (std::uint32_t i = 0; i < n; ++i) tcfg.universe.push_back(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
      eps.push_back(std::make_unique<GcsEndpoint>(sim, *totems.back()));
    }
  }

  void start_all() {
    for (auto& t : totems) t->start();
    // Let the ring form.
    sim.run_for(100'000);
  }
};

Message user_msg(GroupId src, GroupId dst, ConnectionId conn, MsgSeqNum seq,
                 const std::string& body, ReplicaId rep = ReplicaId{0},
                 MsgType type = MsgType::kUserRequest) {
  Message m;
  m.hdr.type = type;
  m.hdr.src_grp = src;
  m.hdr.dst_grp = dst;
  m.hdr.conn = conn;
  m.hdr.tag = ThreadId{0};
  m.hdr.seq = seq;
  m.hdr.sender_replica = rep;
  m.payload = pay(body);
  return m;
}

// --- Codec ------------------------------------------------------------------------

TEST(GcsCodecTest, HeaderRoundTrips) {
  Message m;
  m.hdr.type = MsgType::kCcs;
  m.hdr.src_grp = GroupId{3};
  m.hdr.dst_grp = GroupId{3};
  m.hdr.conn = ConnectionId{9};
  m.hdr.tag = ThreadId{2};
  m.hdr.seq = 12345;
  m.hdr.sender_replica = ReplicaId{1};
  m.hdr.sender_node = NodeId{2};
  m.payload = pay("payload");

  auto decoded = GcsEndpoint::decode(GcsEndpoint::encode(m));
  EXPECT_EQ(decoded.hdr.type, MsgType::kCcs);
  EXPECT_EQ(decoded.hdr.src_grp, GroupId{3});
  EXPECT_EQ(decoded.hdr.dst_grp, GroupId{3});
  EXPECT_EQ(decoded.hdr.conn, ConnectionId{9});
  EXPECT_EQ(decoded.hdr.tag, ThreadId{2});
  EXPECT_EQ(decoded.hdr.seq, 12345u);
  EXPECT_EQ(decoded.hdr.sender_replica, ReplicaId{1});
  EXPECT_EQ(decoded.hdr.sender_node, NodeId{2});
  EXPECT_EQ(str(decoded.payload), "payload");
}

TEST(GcsCodecTest, DecodeRejectsGarbage) {
  EXPECT_THROW(GcsEndpoint::decode(Bytes{1, 2}), CodecError);
}

// The type byte indexes the per-type stats and counters, so a type outside
// [1, kMsgTypes] must be rejected at decode, never delivered.
TEST(GcsCodecTest, DecodeRejectsUnknownType) {
  Message m;
  m.hdr.type = MsgType::kUserRequest;
  m.payload = pay("x");
  for (const std::uint8_t type : {0, 9, 200}) {
    Bytes wire = GcsEndpoint::encode(m);
    wire[0] = type;
    EXPECT_THROW(GcsEndpoint::decode(wire), CodecError) << int{type};
  }
  Bytes wire = GcsEndpoint::encode(m);
  wire[0] = static_cast<std::uint8_t>(MsgType::kFragment);
  EXPECT_EQ(GcsEndpoint::decode(wire).hdr.type, MsgType::kFragment);
}

TEST(GcsCodecTest, MsgTypeNamesAreDistinct) {
  EXPECT_STREQ(to_string(MsgType::kCcs), "CCS");
  EXPECT_STREQ(to_string(MsgType::kGetState), "GetState");
  EXPECT_STRNE(to_string(MsgType::kUserRequest), to_string(MsgType::kUserReply));
}

// --- Group views ---------------------------------------------------------------------

TEST(GcsGroupTest, JoinPropagatesToAllHosts) {
  Cluster c(3);
  c.start_all();
  c.eps[1]->join_group(GroupId{7}, ReplicaId{0});
  c.sim.run_for(50'000);
  for (auto& ep : c.eps) {
    const auto& v = ep->view(GroupId{7});
    ASSERT_EQ(v.members.size(), 1u);
    EXPECT_EQ(v.members[0].node, NodeId{1});
    EXPECT_EQ(v.members[0].replica, ReplicaId{0});
  }
}

TEST(GcsGroupTest, MultipleJoinsSortedConsistently) {
  Cluster c(3);
  c.start_all();
  c.eps[2]->join_group(GroupId{7}, ReplicaId{2});
  c.eps[0]->join_group(GroupId{7}, ReplicaId{0});
  c.eps[1]->join_group(GroupId{7}, ReplicaId{1});
  c.sim.run_for(50'000);
  const auto& v0 = c.eps[0]->view(GroupId{7});
  ASSERT_EQ(v0.members.size(), 3u);
  for (auto& ep : c.eps) {
    EXPECT_EQ(ep->view(GroupId{7}).members, v0.members);
  }
  // Sorted by (node, replica).
  EXPECT_EQ(v0.members[0].node, NodeId{0});
  EXPECT_EQ(v0.members[2].node, NodeId{2});
}

TEST(GcsGroupTest, LeaveRemovesMember) {
  Cluster c(2);
  c.start_all();
  c.eps[0]->join_group(GroupId{1}, ReplicaId{0});
  c.eps[1]->join_group(GroupId{1}, ReplicaId{1});
  c.sim.run_for(50'000);
  c.eps[1]->leave_group(GroupId{1}, ReplicaId{1});
  c.sim.run_for(50'000);
  for (auto& ep : c.eps) {
    ASSERT_EQ(ep->view(GroupId{1}).members.size(), 1u);
    EXPECT_EQ(ep->view(GroupId{1}).members[0].replica, ReplicaId{0});
  }
}

TEST(GcsGroupTest, JoinIsIdempotent) {
  Cluster c(2);
  c.start_all();
  c.eps[0]->join_group(GroupId{1}, ReplicaId{0});
  c.eps[0]->join_group(GroupId{1}, ReplicaId{0});
  c.sim.run_for(50'000);
  EXPECT_EQ(c.eps[1]->view(GroupId{1}).members.size(), 1u);
}

TEST(GcsGroupTest, ViewCallbackFiresOnChange) {
  Cluster c(2);
  c.start_all();
  std::vector<std::size_t> sizes;
  c.eps[0]->subscribe_view(GroupId{4}, [&](const GroupView& v) { sizes.push_back(v.members.size()); });
  c.eps[0]->join_group(GroupId{4}, ReplicaId{0});
  c.eps[1]->join_group(GroupId{4}, ReplicaId{1});
  c.sim.run_for(50'000);
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(GcsGroupTest, NodeCrashRemovesItsMembersFromGroupViews) {
  Cluster c(3);
  c.start_all();
  for (std::uint32_t i = 0; i < 3; ++i) c.eps[i]->join_group(GroupId{5}, ReplicaId{i});
  c.sim.run_for(50'000);
  ASSERT_EQ(c.eps[0]->view(GroupId{5}).members.size(), 3u);
  c.totems[2]->crash();
  c.sim.run_for(500'000);
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_EQ(c.eps[i]->view(GroupId{5}).members.size(), 2u) << "host " << i;
    for (const auto& m : c.eps[i]->view(GroupId{5}).members) {
      EXPECT_NE(m.node, NodeId{2});
    }
  }
}

TEST(GcsGroupTest, RestartedHostLearnsGroupMembership) {
  Cluster c(3);
  c.start_all();
  c.eps[0]->join_group(GroupId{5}, ReplicaId{0});
  c.eps[1]->join_group(GroupId{5}, ReplicaId{1});
  c.sim.run_for(50'000);
  c.totems[2]->crash();
  c.sim.run_for(500'000);
  c.totems[2]->restart();
  c.sim.run_for(1'000'000);
  // Host 2 rejoined the ring after missing the original joins; the
  // re-announcement on the Totem view change fills it in.
  EXPECT_EQ(c.eps[2]->view(GroupId{5}).members.size(), 2u);
}

// --- Ordered delivery ---------------------------------------------------------------

TEST(GcsDeliveryTest, SubscribersReceiveGroupTraffic) {
  Cluster c(2);
  c.start_all();
  std::vector<std::string> got;
  c.eps[1]->subscribe(GroupId{9}, [&](const Message& m) { got.push_back(str(m.payload)); });
  c.eps[0]->send(user_msg(GroupId{8}, GroupId{9}, ConnectionId{1}, 1, "hello"));
  c.sim.run_for(50'000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
}

TEST(GcsDeliveryTest, NonSubscribersSeeNothing) {
  Cluster c(2);
  c.start_all();
  int other = 0;
  c.eps[1]->subscribe(GroupId{10}, [&](const Message&) { ++other; });
  c.eps[0]->send(user_msg(GroupId{8}, GroupId{9}, ConnectionId{1}, 1, "hello"));
  c.sim.run_for(50'000);
  EXPECT_EQ(other, 0);
}

TEST(GcsDeliveryTest, TotalOrderAcrossHosts) {
  Cluster c(3);
  c.start_all();
  std::vector<std::vector<std::string>> got(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    c.eps[i]->subscribe(GroupId{9}, [&, i](const Message& m) { got[i].push_back(str(m.payload)); });
  }
  // Each host sends on its own connection so nothing is a duplicate.
  for (int k = 0; k < 10; ++k) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      c.eps[i]->send(user_msg(GroupId{i}, GroupId{9}, ConnectionId{i}, static_cast<MsgSeqNum>(k + 1),
                              "h" + std::to_string(i) + "." + std::to_string(k)));
    }
  }
  c.sim.run_for(200'000);
  ASSERT_EQ(got[0].size(), 30u);
  EXPECT_EQ(got[1], got[0]);
  EXPECT_EQ(got[2], got[0]);
}

// --- Duplicate detection / suppression ------------------------------------------------

TEST(GcsDupTest, ReceiverDropsSecondCopyOfSameLogicalMessage) {
  Cluster c(3);
  c.start_all();
  std::vector<std::string> got;
  c.eps[2]->subscribe(GroupId{9}, [&](const Message& m) { got.push_back(str(m.payload)); });
  // Two "replicas" on different hosts send the same logical message
  // (same conn, tag, seq) — classic active replication.
  c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "copyA", ReplicaId{0}));
  c.eps[1]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "copyB", ReplicaId{1}));
  c.sim.run_for(100'000);
  ASSERT_EQ(got.size(), 1u);
  const auto& st = c.eps[2]->stats();
  EXPECT_EQ(st.delivered[static_cast<int>(MsgType::kUserRequest)], 1u);
  // At least one endpoint observed and dropped the duplicate (unless
  // sender-side suppression beat it to the wire).
}

TEST(GcsDupTest, StaleLowerSeqIsDropped) {
  Cluster c(2);
  c.start_all();
  std::vector<std::string> got;
  c.eps[1]->subscribe(GroupId{9}, [&](const Message& m) { got.push_back(str(m.payload)); });
  c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 5, "five"));
  c.sim.run_for(50'000);
  c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 3, "three(stale)"));
  c.sim.run_for(50'000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "five");
}

TEST(GcsDupTest, DifferentTagsAreIndependentStreams) {
  Cluster c(2);
  c.start_all();
  std::vector<std::string> got;
  c.eps[1]->subscribe(GroupId{9}, [&](const Message& m) { got.push_back(str(m.payload)); });
  auto m1 = user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "threadA");
  m1.hdr.tag = ThreadId{1};
  auto m2 = user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "threadB");
  m2.hdr.tag = ThreadId{2};
  c.eps[0]->send(m1);
  c.eps[0]->send(m2);
  c.sim.run_for(50'000);
  EXPECT_EQ(got.size(), 2u);
}

TEST(GcsDupTest, DifferentTypesAreIndependentStreams) {
  Cluster c(2);
  c.start_all();
  int requests = 0, replies = 0;
  c.eps[1]->subscribe(GroupId{9}, [&](const Message& m) {
    if (m.hdr.type == MsgType::kUserRequest) ++requests;
    if (m.hdr.type == MsgType::kUserReply) ++replies;
  });
  c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "req"));
  c.eps[0]->send(
      user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "rep", ReplicaId{0}, MsgType::kUserReply));
  c.sim.run_for(50'000);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(replies, 1);
}

TEST(GcsDupTest, SenderSideSuppressionCancelsQueuedCopy) {
  Cluster c(3);
  c.start_all();
  // Host 0 sends the logical message; host 1's copy is queued behind a pile
  // of other messages, so host 0's copy is ordered first and host 1 must
  // cancel its own copy before it reaches the wire.
  for (int k = 0; k < 40; ++k) {
    c.eps[1]->send(user_msg(GroupId{2}, GroupId{3}, ConnectionId{7}, static_cast<MsgSeqNum>(k + 1),
                            "filler" + std::to_string(k)));
  }
  c.eps[1]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "dup", ReplicaId{1}));
  c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "dup", ReplicaId{0}));
  c.sim.run_for(300'000);
  const auto& st1 = c.eps[1]->stats();
  EXPECT_EQ(st1.sent_cancelled[static_cast<int>(MsgType::kUserRequest)], 1u);
  // Exactly one copy of the logical message hit the wire across both hosts.
  const auto wire0 = c.eps[0]->stats().on_wire(MsgType::kUserRequest);
  const auto wire1 = c.eps[1]->stats().on_wire(MsgType::kUserRequest);
  EXPECT_EQ(wire0 + wire1, 41u);  // 40 fillers + 1 winning copy
}

TEST(GcsDupTest, ExplicitCancelBeforeSendWorks) {
  Cluster c(2);
  // Ring not yet formed: everything stays queued.
  auto h = c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "never"));
  EXPECT_TRUE(c.eps[0]->cancel(h));
  c.start_all();
  std::vector<std::string> got;
  c.eps[1]->subscribe(GroupId{9}, [&](const Message& m) { got.push_back(str(m.payload)); });
  c.sim.run_for(100'000);
  EXPECT_TRUE(got.empty());
}

TEST(GcsDupTest, CancelAfterWireFails) {
  Cluster c(2);
  c.start_all();
  auto h = c.eps[0]->send(user_msg(GroupId{1}, GroupId{9}, ConnectionId{4}, 1, "gone"));
  c.sim.run_for(100'000);
  EXPECT_FALSE(c.eps[0]->cancel(h));
}

TEST(GcsStatsTest, OnWireCountsAttemptedMinusCancelled) {
  GcsStats st;
  st.sent_attempted[static_cast<int>(MsgType::kCcs)] = 10;
  st.sent_cancelled[static_cast<int>(MsgType::kCcs)] = 7;
  EXPECT_EQ(st.on_wire(MsgType::kCcs), 3u);
}

}  // namespace
}  // namespace cts::gcs
