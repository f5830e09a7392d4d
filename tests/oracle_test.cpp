// Tests for the runtime ordering oracle (doc/STATIC_ANALYSIS.md).
//
// Three layers of coverage:
//   1. Injection: every check is driven directly (abort disabled) with a
//      violating history, proving the check actually fires — an oracle
//      that never fires is indistinguishable from one that verifies
//      nothing.
//   2. Negative controls: legal histories (including restarts, which
//      legitimately rewind cursors and round numbers) produce zero
//      violations.
//   3. End-to-end: a randomized crash/restart fuzz over the full stack
//      (app/scenario.hpp) with the oracle live on every delivery, and the
//      sending-representative crash handoff across groups (paper Section 5).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "clock/physical_clock.hpp"
#include "cts/consistent_time_service.hpp"
#include "cts/multigroup.hpp"
#include "cts_rig.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/oracle.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::obs {
namespace {

using Check = OrderingOracle::Check;

constexpr GroupId kGrp{1};
constexpr ConnectionId kConn{100};
constexpr ThreadId kThread{0};
constexpr std::uint8_t kType = 3;

/// A directly driven oracle with abort disabled, so violating histories
/// return instead of killing the test process.
struct OracleRig {
  sim::Simulator sim{1};
  MetricsRegistry metrics;
  TraceLog trace;
  OrderingOracle orc{sim, metrics, trace, /*abort_on_violation=*/false};

  void deliver(std::uint32_t node, MsgSeqNum seq, std::uint8_t payload_byte,
               std::uint32_t sender = 9) {
    const std::uint8_t payload[1] = {payload_byte};
    orc.on_gcs_deliver(NodeId{node}, kGrp, kConn, kType, kThread, seq, NodeId{sender}, payload);
  }
};

// --- Total order ---------------------------------------------------------------

TEST(OracleInjection, OutOfOrderDeliveryFires) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);  // canonical order: seq1 then seq2
  r.deliver(1, 2, 8);
  r.deliver(1, 1, 7);  // node 1 sees them reversed
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
  ASSERT_FALSE(r.orc.violation_log().empty());
  EXPECT_EQ(r.orc.violation_log().front().check, Check::kTotalOrder);
}

TEST(OracleInjection, PayloadDivergenceFires) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(1, 1, 8);  // same key, different bytes
  EXPECT_EQ(r.orc.violations(Check::kTotalOrder), 1u);
}

TEST(OracleNegative, AgreeingDeliveriesAreClean) {
  OracleRig r;
  for (std::uint32_t node : {0u, 1u, 2u}) {
    for (MsgSeqNum s = 1; s <= 4; ++s) r.deliver(node, s, static_cast<std::uint8_t>(s));
  }
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_GT(r.orc.checks_run(), 0u);
}

TEST(OracleNegative, NodeResetAllowsRedelivery) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);
  // Restart: recovery legitimately redelivers from an earlier point.
  r.orc.on_node_reset(NodeId{0});
  r.deliver(0, 1, 7);
  r.deliver(0, 2, 8);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Membership ----------------------------------------------------------------

TEST(OracleInjection, DeliveryFromOutsideViewFires) {
  OracleRig r;
  const std::vector<NodeId> members = {NodeId{0}, NodeId{1}};
  r.orc.on_view_installed(NodeId{0}, /*ring_id=*/7, members);
  r.deliver(0, 1, 7, /*sender=*/5);  // node 5 is not in the view
  EXPECT_EQ(r.orc.violations(Check::kMembership), 1u);
}

TEST(OracleNegative, MemberDeliveryIsClean) {
  OracleRig r;
  const std::vector<NodeId> members = {NodeId{0}, NodeId{1}};
  r.orc.on_view_installed(NodeId{0}, 7, members);
  r.deliver(0, 1, 7, /*sender=*/1);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Round agreement -----------------------------------------------------------

TEST(OracleInjection, ConflictingRoundValueFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{1}, kThread, 1, 1'001, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 1u);
}

TEST(OracleInjection, ConflictingSynchronizerFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{1}, kThread, 1, 1'000, ReplicaId{2}, false);
  EXPECT_EQ(r.orc.violations(Check::kAgreement), 1u);
}

// --- Clock monotonicity --------------------------------------------------------

TEST(OracleInjection, GroupClockRegressionFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 900, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

TEST(OracleInjection, RepeatedRoundNumberFires) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 1'000, ReplicaId{0}, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 2, 1'100, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

TEST(OracleNegative, ReplicaResetResyncsRoundNumbersButNotValues) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 5, 1'000, ReplicaId{0}, false);
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  // The rebuilt replica resumes from a checkpointed round counter...
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 3, 1'200, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  // ...but its clock values must still move forward.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 4, 800, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

// --- Causal floor --------------------------------------------------------------

TEST(OracleInjection, ProposalAtOrBelowFloorFires) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/500, false);  // == floor
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 1u);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 2, /*proposed=*/400, false);  // < floor
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 2u);
}

TEST(OracleInjection, CompletionClampedBelowFloorFires) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/600, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  // The fast-forward guard clamped the winner's value below its own floor.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, /*value=*/450, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(Check::kCausalFloor), 1u);
}

TEST(OracleNegative, ClampAboveFloorOnlyCounts) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 400);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, /*proposed=*/600, false);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, /*value=*/500, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
  EXPECT_EQ(r.metrics.counter("oracle.floor_checks_clamped").value, 1);
}

TEST(OracleNegative, ProposalAboveFloorIsClean) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, 501, false);
  EXPECT_EQ(r.orc.violations(), 0u);
}

// --- Checkpoint chains ---------------------------------------------------------

TEST(OracleInjection, BrokenChainLinkFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{10, 111, 0, 1'111}, {20, 222, 9'999, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, /*verified=*/true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, DecreasingCoverageFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{20, 111, 0, 1'111}, {10, 222, 1'111, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, UnverifiedChainFires) {
  OracleRig r;
  const std::vector<CheckpointLink> chain = {{10, 111, 0, 1'111}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, chain, /*verified=*/false);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleInjection, CoverageRollbackWithinIncarnationFires) {
  OracleRig r;
  const std::vector<CheckpointLink> fresh = {{20, 111, 0, 1'111}};
  const std::vector<CheckpointLink> stale = {{10, 222, 0, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, fresh, true);
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, stale, true);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
}

TEST(OracleNegative, StaleDiskAfterRestartIsClean) {
  OracleRig r;
  const std::vector<CheckpointLink> fresh = {{20, 111, 0, 1'111}};
  const std::vector<CheckpointLink> stale = {{10, 222, 0, 2'222}};
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, fresh, true);
  // A cold start from a stale disk re-adopts older coverage, then catches
  // up via state transfer; that is not a rollback.
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_checkpoint_chain(kGrp, ReplicaId{0}, stale, true);
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleInjection, NonIncreasingRecoveryEpochFires) {
  OracleRig r;
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 5);
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 5);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 1u);
  r.orc.on_recovery_epoch(kGrp, ReplicaId{0}, 4);
  EXPECT_EQ(r.orc.violations(Check::kCheckpoint), 2u);
}

// --- Group cold restart --------------------------------------------------------

TEST(OracleNegative, GroupResetClearsAgreementAndCanon) {
  OracleRig r;
  r.deliver(0, 1, 7);
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'000, ReplicaId{0}, false);
  // Total failure: connection sequences and round numbers restart, values
  // climb above everything handed out before.
  r.orc.on_node_reset(NodeId{0});
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_group_reset(kGrp);
  r.deliver(0, 1, 9);  // same key, new payload: a NEW message, not divergence
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 2'000, ReplicaId{0}, false);
  EXPECT_EQ(r.orc.violations(), 0u);
}

TEST(OracleInjection, GroupResetStillRequiresValueMonotonicity) {
  OracleRig r;
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 2'000, ReplicaId{0}, false);
  r.orc.on_replica_reset(kGrp, ReplicaId{0});
  r.orc.on_group_reset(kGrp);
  // The restored state must force the clock above pre-outage readings.
  r.orc.on_round_complete(kGrp, ReplicaId{0}, kThread, 1, 1'500, ReplicaId{0}, false);
  EXPECT_GE(r.orc.violations(Check::kClockMonotonicity), 1u);
}

// --- Bookkeeping ---------------------------------------------------------------

TEST(OracleTest, ViolationCountersAndNamesLineUp) {
  OracleRig r;
  r.orc.on_stamp_observed(kGrp, ReplicaId{0}, 500);
  r.orc.on_ccs_send(kGrp, ReplicaId{0}, kThread, 1, 100, false);
  EXPECT_EQ(r.metrics.counter("oracle.violations").value, 1);
  EXPECT_EQ(r.metrics.counter("oracle.violations.causal_floor").value, 1);
  EXPECT_EQ(r.metrics.counter("oracle.checks_run").value,
            static_cast<std::int64_t>(r.orc.checks_run()));
  EXPECT_EQ(std::string(OrderingOracle::check_name(Check::kCausalFloor)), "causal_floor");
  ASSERT_EQ(r.orc.violation_log().size(), 1u);
  EXPECT_FALSE(r.orc.violation_log().front().detail.empty());
}

}  // namespace
}  // namespace cts::obs

// --- End-to-end: fuzzed crash/restart under the live oracle --------------------

namespace cts::app {
namespace {

struct OracleFuzzParam {
  std::uint64_t seed;
  double loss;
  std::uint32_t shards;
};

class OracleCrashFuzz : public ::testing::TestWithParam<OracleFuzzParam> {};

// The scenario engine's chaos mode (the KV crash fuzz of
// kv_fuzz_test.cpp, 80 steps) over a lossy network.  The Testbed's default
// oracle aborts on the first violation, so merely finishing is already a
// verdict; ok() also requires zero violations, every request answered and
// every replica rejoined, and oracle_checks catches an oracle that was
// never wired.
TEST_P(OracleCrashFuzz, RandomizedFaultScheduleStaysClean) {
  const auto p = GetParam();
  ScenarioSpec spec;
  spec.kv = true;
  spec.chaos = 12;
  spec.invocations = 80;
  spec.seed = p.seed;
  spec.loss = p.loss;
  spec.shards = p.shards;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.ok()) << r.report;
  EXPECT_GT(r.replies, 0u) << "no progress under the oracle";
  EXPECT_GT(r.oracle_checks, 0u) << "the oracle never ran";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleCrashFuzz,
    ::testing::Values(OracleFuzzParam{31, 0.0, 1}, OracleFuzzParam{32, 0.02, 1},
                      OracleFuzzParam{33, 0.05, 2}, OracleFuzzParam{34, 0.05, 4}),
    [](const ::testing::TestParamInfo<OracleFuzzParam>& i) {
      return "seed" + std::to_string(i.param.seed) + "_loss" +
             std::to_string(static_cast<int>(i.param.loss * 100)) + "_sh" +
             std::to_string(i.param.shards);
    });

}  // namespace
}  // namespace cts::app

// --- End-to-end: representative crash mid inter-group handoff ------------------

namespace cts::ccs {
namespace {

constexpr ConnectionId kInterConn{200};

sim::Task read_clock_push(ConsistentTimeService& svc, std::vector<Micros>& out) {
  out.push_back(co_await svc.get_time(kThread0));
}

TEST(OracleMultigroupTest, RepresentativeCrashMidHandoffKeepsCausality) {
  // Group A is 300ms ahead.  Both A replicas start the same stamped send;
  // A's representative (node 0) crashes while the stamping round is in
  // flight.  The backup replica's identical message completes the handoff,
  // the ring reconfigures around the dead node, and the oracle must see a
  // fully causal history: zero floor violations, zero anything else.
  // Two groups with a live (non-aborting) oracle observing every layer.
  // Group A's clocks run ahead of group B's, so an unstamped handoff WOULD
  // violate causality.
  CtsRig rig(TwoGroups{300'000}, {.oracle = true});
  rig.start();

  Micros a_ts = 0;
  std::vector<Micros> b_reads;
  for (std::uint32_t i : {2u, 3u}) {
    rig.messengers[i]->subscribe(kInterConn, [&, i](const gcs::Message&, Micros, const Bytes&) {
      read_clock_push(*rig.svcs[i], b_reads);
    });
  }
  for (std::uint32_t i : {0u, 1u}) {
    rig.messengers[i]->stamp_and_send(kGroupB, kInterConn, 1, Bytes{42},
                                      [&](Micros ts) { a_ts = ts; });
  }
  // Fail-stop A's representative before the stamping round can settle: the
  // proposal is on the wire, the stamped user message is not.
  rig.sim.after(2'000, [&] {
    rig.orc->on_node_reset(NodeId{0});
    rig.totems[0]->scope().shutdown();
  });
  rig.sim.run_for(20'000'000);

  ASSERT_NE(a_ts, 0) << "the surviving A replica never completed the stamping round";
  ASSERT_EQ(b_reads.size(), 2u) << "stamped handoff lost in the crash";
  for (const Micros b : b_reads) {
    EXPECT_GT(b, a_ts) << "B read below the stamp: causality broken by the crash";
  }
  EXPECT_EQ(rig.orc->violations(obs::OrderingOracle::Check::kCausalFloor), 0u);
  EXPECT_EQ(rig.orc->violations(), 0u);
  EXPECT_GT(rig.orc->checks_run(), 0u);
}

}  // namespace
}  // namespace cts::ccs
