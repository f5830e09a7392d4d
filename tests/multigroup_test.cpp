// Tests for the multi-group causal-timestamp extension (paper Section 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "clock/physical_clock.hpp"
#include "cts/consistent_time_service.hpp"
#include "cts/multigroup.hpp"
#include "cts_rig.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::ccs {
namespace {

constexpr ConnectionId kInterConn{200};

// Free-function coroutines: a lambda coroutine created inside a delivery
// callback would be destroyed (with its captures) while still suspended.
sim::Task read_clock_into(ConsistentTimeService& svc, Micros& out) {
  out = co_await svc.get_time(kThread0);
}

sim::Task read_clock_push(ConsistentTimeService& svc, std::vector<Micros>& out) {
  out.push_back(co_await svc.get_time(kThread0));
}

TEST(StampedPayloadTest, RoundTrips) {
  StampedPayload p;
  p.timestamp = 123456789;
  p.body = Bytes{1, 2, 3};
  auto q = StampedPayload::decode(p.encode());
  EXPECT_EQ(q.timestamp, p.timestamp);
  EXPECT_EQ(q.body, p.body);
}

TEST(CausalFloorTest, AdvanceIsMonotoneAndIdempotent) {
  sim::Simulator sim;
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  tcfg.universe = {NodeId{0}};
  totem::TotemNode t(sim, net, NodeId{0}, tcfg);
  gcs::GcsEndpoint ep(sim, t);
  clock::PhysicalClock pc(sim, {});
  ConsistentTimeService svc(sim, ep, pc, CtsConfig{kGroupA, kCcsConnA, ReplicaId{0}});
  EXPECT_EQ(svc.causal_floor(), kNoTime);
  svc.advance_causal_floor(100);
  EXPECT_EQ(svc.causal_floor(), 100);
  svc.advance_causal_floor(50);  // lower: ignored
  EXPECT_EQ(svc.causal_floor(), 100);
  svc.advance_causal_floor(200);
  EXPECT_EQ(svc.causal_floor(), 200);
}

TEST(CausalFloorTest, FloorSurvivesCheckpointRestore) {
  sim::Simulator sim;
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  tcfg.universe = {NodeId{0}};
  totem::TotemNode t(sim, net, NodeId{0}, tcfg);
  gcs::GcsEndpoint ep(sim, t);
  clock::PhysicalClock pc(sim, {});
  ConsistentTimeService a(sim, ep, pc, CtsConfig{kGroupA, kCcsConnA, ReplicaId{0}});
  a.advance_causal_floor(777);
  ConsistentTimeService b(sim, ep, pc, CtsConfig{kGroupA, kCcsConnA, ReplicaId{1}});
  b.restore(a.checkpoint());
  EXPECT_EQ(b.causal_floor(), 777);
}

TEST(MultigroupTest, WithoutTimestampsCausalityIsViolated) {
  // Group A's clocks are 300ms ahead.  A reads its group clock and sends a
  // PLAIN message to B; B's subsequent reading is far below A's — the
  // exact anomaly Section 5 warns about.
  CtsRig rig(TwoGroups{300'000});
  rig.start();

  Micros a_ts = 0, b_read = 0;
  auto flow = [&]() -> sim::Task {
    a_ts = co_await rig.svcs[0]->get_time(kThread0);
    // Plain (unstamped) inter-group message.
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kUserRequest;
    m.hdr.src_grp = kGroupA;
    m.hdr.dst_grp = kGroupB;
    m.hdr.conn = kInterConn;
    m.hdr.tag = kThread0;
    m.hdr.seq = 1;
    rig.eps[0]->send(std::move(m));
  };
  rig.eps[2]->subscribe(kGroupB, [&](const gcs::Message& m) {
    if (m.hdr.conn != kInterConn) return;
    read_clock_into(*rig.svcs[2], b_read);
  });
  // A mirror on the second A replica keeps the A group in agreement.
  auto mirror = [&]() -> sim::Task { (void)co_await rig.svcs[1]->get_time(kThread0); };
  mirror();
  flow();
  rig.sim.run_for(10'000'000);
  ASSERT_NE(a_ts, 0);
  ASSERT_NE(b_read, 0);
  EXPECT_LT(b_read, a_ts);  // causality violated: effect timestamped before cause
}

TEST(MultigroupTest, StampedMessagesPreserveCausality) {
  CtsRig rig(TwoGroups{300'000});
  rig.start();

  Micros a_ts = 0;
  std::vector<Micros> b_reads;
  // Both B replicas read their group clock upon delivery.
  for (std::uint32_t i : {2u, 3u}) {
    rig.messengers[i]->subscribe(kInterConn, [&, i](const gcs::Message&, Micros, const Bytes&) {
      read_clock_push(*rig.svcs[i], b_reads);
    });
  }
  // Both A replicas perform the same logical stamped send.
  for (std::uint32_t i : {0u, 1u}) {
    rig.messengers[i]->stamp_and_send(kGroupB, kInterConn, 1, Bytes{42},
                                      [&](Micros ts) { a_ts = ts; });
  }
  rig.sim.run_for(10'000'000);
  ASSERT_NE(a_ts, 0);
  ASSERT_EQ(b_reads.size(), 2u);
  // Causality: every B reading after delivery exceeds the A timestamp.
  EXPECT_GT(b_reads[0], a_ts);
  // Agreement within B is preserved despite the floor raise.
  EXPECT_EQ(b_reads[0], b_reads[1]);
}

TEST(MultigroupTest, FloorIsRaisedBeforeEachCallbackAcrossABatchedFrame) {
  // Three stamped messages enqueued back-to-back at one node ride a single
  // token visit as ONE batch frame, so the receiving group's GCS delivers
  // them in one burst.  The causal floor must be at (or above) each
  // message's timestamp by the time ITS application callback runs — not
  // just after the whole batch drains.
  CtsRig rig(TwoGroups{300'000});
  rig.start();
  std::vector<std::pair<Micros, Micros>> seen;  // (stamp, floor at callback)
  rig.messengers[2]->subscribe(kInterConn, [&](const gcs::Message&, Micros ts, const Bytes&) {
    seen.push_back({ts, rig.svcs[2]->causal_floor()});
  });
  const auto frames_before = rig.totems[0]->stats().batch_frames_sent;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    StampedPayload p;
    p.timestamp = 500'000 + static_cast<Micros>(k);
    p.body = Bytes{static_cast<std::uint8_t>(k)};
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kUserRequest;
    m.hdr.src_grp = kGroupA;
    m.hdr.dst_grp = kGroupB;
    m.hdr.conn = kInterConn;
    m.hdr.tag = kThread0;
    m.hdr.seq = k;
    m.payload = p.encode();
    rig.eps[0]->send(std::move(m));
  }
  rig.sim.run_for(1'000'000);
  ASSERT_EQ(seen.size(), 3u);
  // The three messages really shared one frame.
  EXPECT_EQ(rig.totems[0]->stats().batch_frames_sent, frames_before + 1);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, 500'001 + static_cast<Micros>(i));
    EXPECT_GE(seen[i].second, seen[i].first)
        << "floor lagged its message's stamp at batch position " << i;
  }
  EXPECT_EQ(rig.svcs[2]->causal_floor(), 500'003);
}

TEST(MultigroupTest, FloorDoesNotDisturbUnrelatedMonotonicity) {
  CtsRig rig(TwoGroups{300'000});
  rig.start();
  std::vector<Micros> reads;
  auto worker = [&](std::uint32_t i, bool record) -> sim::Task {
    for (int k = 0; k < 20; ++k) {
      co_await rig.sim.delay(200);
      const Micros v = co_await rig.svcs[i]->get_time(kThread0);
      if (record) reads.push_back(v);
    }
  };
  worker(2, true);
  worker(3, false);
  // Mid-stream, raise the floor far ahead via a stamped message from A.
  rig.sim.after(2'000, [&] {
    for (std::uint32_t i : {2u, 3u}) rig.messengers[i]->subscribe(kInterConn, {});
    for (std::uint32_t i : {0u, 1u}) {
      rig.messengers[i]->stamp_and_send(kGroupB, kInterConn, 1, Bytes{1});
    }
  });
  rig.sim.run_for(30'000'000);
  ASSERT_EQ(reads.size(), 20u);
  for (std::size_t i = 1; i < reads.size(); ++i) {
    EXPECT_GT(reads[i], reads[i - 1]);
  }
}

TEST(MultigroupTest, BackAndForthConversationStaysCausal) {
  // A -> B -> A: each hop stamps with its group clock; timestamps must be
  // strictly increasing along the causal chain.
  CtsRig rig(TwoGroups{300'000});
  rig.start();
  std::vector<Micros> chain;

  for (std::uint32_t i : {2u, 3u}) {
    rig.messengers[i]->subscribe(kInterConn, [&, i](const gcs::Message&, Micros, const Bytes&) {
      // B replies, stamped with B's group clock (raised past A's timestamp
      // by the causal floor).
      rig.messengers[i]->stamp_and_send(kGroupA, ConnectionId{201}, 1, Bytes{2});
    });
  }
  for (std::uint32_t i : {0u, 1u}) {
    rig.messengers[i]->subscribe(ConnectionId{201}, [&, i](const gcs::Message&, Micros ts,
                                                           const Bytes&) {
      if (i == 0) chain.push_back(ts);  // B's reply timestamp
    });
    rig.messengers[i]->stamp_and_send(kGroupB, kInterConn, 1, Bytes{1}, [&, i](Micros ts) {
      if (i == 0) chain.push_back(ts);  // A's send timestamp (fires first)
    });
  }
  rig.sim.run_for(30'000'000);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_GT(chain[1], chain[0]);  // B's reply is causally after A's send
}

TEST(MultigroupTest, MalformedStampIsRejectedCountedAndDoesNotRaiseFloor) {
  // Mirror of the totem malformed-packet suite, one layer up: payloads that
  // do not decode as a StampedPayload must be dropped on the subscriber's
  // floor — no callback, no floor raise (a garbage timestamp would wedge
  // the group clock) — and accounted (multigroup.stamps_rejected counter +
  // stamp_rejected trace event).
  CtsRig rig(TwoGroups{300'000});
  rig.start();
  obs::Recorder& rec = rig.rec;
  // Every node records into the rig's recorder; the rejections are node 2's.
  const auto rejected_at_2 = [&rec] {
    const auto events = rec.trace().select(obs::EventKind::kStampRejected);
    return std::count_if(events.begin(), events.end(),
                         [](const obs::TraceEvent& e) { return e.node == 2; });
  };

  int delivered = 0;
  rig.messengers[2]->subscribe(kInterConn, [&](const gcs::Message&, Micros, const Bytes&) {
    ++delivered;
  });
  const Micros floor_before = rig.svcs[2]->causal_floor();

  // Three shapes of garbage: empty, a truncated timestamp, and a body
  // length prefix pointing past the end of the buffer.
  BytesWriter lying;
  lying.i64(5);
  lying.u32(100);  // claims 100 body bytes, provides none
  const std::vector<Bytes> evil = {Bytes{}, Bytes{1, 2, 3}, std::move(lying).take()};
  for (std::size_t k = 0; k < evil.size(); ++k) {
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kUserRequest;
    m.hdr.src_grp = kGroupA;
    m.hdr.dst_grp = kGroupB;
    m.hdr.conn = kInterConn;
    m.hdr.tag = kThread0;
    m.hdr.seq = k + 1;
    m.payload = evil[k];
    rig.eps[0]->send(std::move(m));
  }
  rig.sim.run_for(1'000'000);

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.svcs[2]->causal_floor(), floor_before);
  EXPECT_EQ(rec.counter("multigroup.stamps_rejected").value, 3u);
  EXPECT_EQ(rec.trace().count(obs::EventKind::kStampRejected), 3u);
  EXPECT_EQ(rejected_at_2(), 3);

  // The stream is not wedged: a well-formed stamp on the same (conn, tag)
  // stream still delivers and raises the floor.
  StampedPayload p;
  p.timestamp = 900'000'000;
  p.body = Bytes{7};
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kUserRequest;
  m.hdr.src_grp = kGroupA;
  m.hdr.dst_grp = kGroupB;
  m.hdr.conn = kInterConn;
  m.hdr.tag = kThread0;
  m.hdr.seq = 4;
  m.payload = p.encode();
  rig.eps[0]->send(std::move(m));
  rig.sim.run_for(1'000'000);

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.svcs[2]->causal_floor(), 900'000'000);
  EXPECT_EQ(rec.counter("multigroup.stamps_rejected").value, 3u);
}

}  // namespace
}  // namespace cts::ccs
