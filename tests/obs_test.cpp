// Tests for the observability layer: metrics registry, bounded trace log,
// JSON export — and trace-based *behavioral* assertions over the protocol
// stack (a loss-free run retransmits nothing; exactly one synchronizer wins
// each CCS round; a promoted passive backup re-issues exactly one pending
// proposal; reentrant clock calls are rejected loudly, not silently).
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cts/consistent_time_service.hpp"
#include "cts_rig.hpp"
#include "obs/recorder.hpp"

namespace cts::obs {
namespace {

using ccs::CtsRig;
using ccs::kThread0;
using ccs::ReplicationStyle;

// The obs rigs' workers draw delays from seed 1.
constexpr std::uint64_t kDelaySeed = 1;
constexpr Micros kBudget = 60'000'000;

// --- Pure-unit: registry and trace log ------------------------------------------

TEST(MetricsRegistryTest, CounterIsStableAndNamed) {
  MetricsRegistry reg;
  Counter& c = reg.counter("layer.widgets");
  ++c;
  c += 4;
  EXPECT_EQ(reg.value("layer.widgets"), 5u);
  EXPECT_EQ(&reg.counter("layer.widgets"), &c);  // get-or-create returns the same slot
  EXPECT_EQ(reg.value("layer.missing"), 0u);     // value() never creates
}

TEST(MetricsRegistryTest, JsonContainsCountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("a.b") += 3;
  reg.set_gauge("g", -7);
  reg.histogram("h", 10, 100).add(42);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.b\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\": -7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

TEST(TraceLogTest, CapsStorageButCountsEverything) {
  TraceLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.record(i, EventKind::kTokenPass, 0, ReplicaId::kInvalid, i);
  }
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.recorded(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.count(EventKind::kTokenPass), 4u);
}

TEST(TraceLogTest, JsonlNamesKindsAndNullsInvalidIds) {
  TraceLog log;
  log.record(12, EventKind::kSynchronizerWin, NodeId::kInvalid, 2, 7, 0, 0);
  const std::string jsonl = log.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\": \"synchronizer_win\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"node\": null"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"replica\": 2"), std::string::npos) << jsonl;
}

// --- Behavioral: full CTS rig with a shared recorder ------------------------------

TEST(ObsTraceTest, LossFreeRunHasNoDropsRetransmitsOrStalledWindows) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(40, kBudget, kDelaySeed);
  ASSERT_EQ(rig.readings[0].size(), 40u);

  const TraceLog& t = rig.rec.trace();
  // Negative space: a perfect network and an idle-enough ring mean nothing
  // was lost or corrupted, and the token never had to be resent.
  EXPECT_EQ(t.count(EventKind::kNetDrop), 0u);
  EXPECT_EQ(t.count(EventKind::kNetCorrupt), 0u);
  EXPECT_EQ(t.count(EventKind::kTokenRetransmit), 0u);
  // Message retransmits can occur even without loss: per-receiver jitter
  // lets the token overtake a multicast still in flight (~2.5 sigma tail),
  // and the receiver then requests the not-yet-arrived seq on the token.
  // Loss-free, that stays a rare accident — bounded, not zero.
  EXPECT_LE(t.count(EventKind::kMsgRetransmit), 2u);
  // Positive space: the run actually exercised the stack.
  EXPECT_GT(t.count(EventKind::kTokenPass), 0u);
  EXPECT_GT(t.count(EventKind::kGcsDeliver), 0u);
  EXPECT_GT(t.count(EventKind::kCcsRoundComplete), 0u);
  EXPECT_EQ(t.dropped(), 0u);

  // Metrics agree with the trace.
  EXPECT_EQ(rig.rec.metrics().value("net.packets_dropped"), 0u);
  EXPECT_GT(rig.rec.metrics().value("totem.token_passes"), 0u);
  EXPECT_GT(rig.rec.metrics().value("gcs.delivered"), 0u);
}

TEST(ObsTraceTest, ExactlyOneSynchronizerWinsEachRound) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(60, kBudget, kDelaySeed);
  ASSERT_EQ(rig.readings[0].size(), 60u);

  // kSynchronizerWin is recorded only at the replica whose proposal was
  // ordered first, so group-wide each (round, thread) must appear exactly
  // once even though all three replicas complete every round.
  std::map<std::pair<std::int64_t, std::int64_t>, int> wins;
  for (const TraceEvent& e : rig.rec.trace().select(EventKind::kSynchronizerWin)) {
    ++wins[{e.a, e.b}];
  }
  EXPECT_GE(wins.size(), 60u);
  for (const auto& [key, n] : wins) {
    EXPECT_EQ(n, 1) << "round " << key.first << " thread " << key.second
                    << " won at " << n << " replicas";
  }

  // Every round completion (at every replica) carries a skew sample.
  EXPECT_EQ(rig.rec.trace().count(EventKind::kSkewSample),
            rig.rec.trace().count(EventKind::kCcsRoundComplete));
}

TEST(ObsTraceTest, PassiveFailoverReissuesExactlyOnePendingProposal) {
  // Paper Section 3.3: backups never transmit CCS proposals; when the
  // primary dies before its proposal for an in-flight round was delivered,
  // the promoted backup must send one — exactly one — so the round
  // completes with a consistent group clock at every survivor.
  CtsRig rig(3, {.style = ReplicationStyle::kPassive});
  rig.start();

  // Warm-up round with the primary alive: everyone reads once.
  rig.run_workers(1, kBudget, kDelaySeed);
  ASSERT_EQ(rig.readings[0].size(), 1u);
  ASSERT_EQ(rig.readings[1], rig.readings[0]);
  ASSERT_EQ(rig.rec.trace().count(EventKind::kProposalResent), 0u);

  // Both backups start round 2; the primary never does, and crashes.
  rig.worker(1, 1, kDelaySeed);
  rig.worker(2, 1, kDelaySeed);
  rig.sim.run_for(5'000);  // backups are now blocked waiting for a proposal
  ASSERT_EQ(rig.readings[1].size(), 1u);
  rig.totems[0]->crash();
  rig.clocks[0]->fail();
  rig.sim.run_for(2'000'000);  // ring reforms without n0
  ASSERT_EQ(rig.readings[1].size(), 1u) << "round must not complete before promotion";

  // Promote backup 1: it re-issues the pending proposal for round 2.
  rig.svcs[1]->set_primary(true);
  const Micros deadline = rig.sim.now() + 30'000'000;
  while (rig.sim.now() < deadline &&
         (rig.readings[1].size() < 2 || rig.readings[2].size() < 2)) {
    rig.sim.run_until(rig.sim.now() + 10'000);
  }

  ASSERT_EQ(rig.readings[1].size(), 2u);
  ASSERT_EQ(rig.readings[2].size(), 2u);
  // Consistent group clock across the survivors, and monotone per replica.
  EXPECT_EQ(rig.readings[1][1], rig.readings[2][1]);
  EXPECT_GT(rig.readings[1][1], rig.readings[1][0]);

  const auto resent = rig.rec.trace().select(EventKind::kProposalResent);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_EQ(resent[0].replica, 1u);
  EXPECT_EQ(resent[0].a, kThread0.value);  // thread
  EXPECT_EQ(resent[0].b, 2);               // round number
  EXPECT_EQ(rig.svcs[1]->stats().proposals_resent, 1u);
}

TEST(ObsTraceTest, ReentrantClockCallIsRejectedLoudly) {
  // The NDEBUG-vanishing assert is gone: a second clock-related operation
  // on a thread with a round in flight is rejected with an error return
  // and a trace event, in every build mode.
  CtsRig rig(2);
  rig.start();

  Micros first = kNoTime;
  const bool ok = rig.svcs[0]->start_round(kThread0, ccs::ClockCallType::kGettimeofday,
                                           [&](Micros v) { first = v; });
  ASSERT_TRUE(ok);
  const bool second = rig.svcs[0]->start_round(kThread0, ccs::ClockCallType::kTime,
                                               [](Micros) { FAIL() << "must never run"; });
  EXPECT_FALSE(second);
  EXPECT_EQ(rig.svcs[0]->stats().reentrant_rejected, 1u);
  EXPECT_EQ(rig.rec.trace().count(EventKind::kCcsReentrantCall), 1u);
  EXPECT_EQ(rig.rec.metrics().value("cts.reentrant_rejected"), 1u);

  // The original round is unharmed and still completes.
  rig.worker(1, 1, kDelaySeed);  // the peer must also participate for the round to finish
  rig.sim.run_for(10'000'000);
  EXPECT_NE(first, kNoTime);
}

}  // namespace
}  // namespace cts::obs
