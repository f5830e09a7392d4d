// Tests for the Consistent Time Service core algorithm: agreement,
// monotonicity, validity, offset maintenance, duplicate suppression, the
// common input buffer, and the interposed syscall facade.
#include <gtest/gtest.h>

#include <vector>

#include "cts/consistent_time_service.hpp"
#include "cts/id_gen.hpp"
#include "cts/multigroup.hpp"
#include "cts/time_syscalls.hpp"
#include "cts_rig.hpp"
#include "gcs/gcs.hpp"
#include "sim/simulator.hpp"

namespace cts::ccs {
namespace {

// --- Agreement -------------------------------------------------------------------

TEST(CtsAgreementTest, AllReplicasReturnIdenticalSequences) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(100);
  ASSERT_EQ(rig.readings[0].size(), 100u);
  EXPECT_EQ(rig.readings[1], rig.readings[0]);
  EXPECT_EQ(rig.readings[2], rig.readings[0]);
}

TEST(CtsAgreementTest, HoldsDespiteWildlyDifferentPhysicalClocks) {
  // Force extreme disagreement between the hardware clocks.
  CtsRig rig(3);
  rig.start();
  // Replace clock configs by constructing a fresh rig is complex; instead
  // verify the existing random clocks disagree, then check agreement.
  const Micros a = rig.clocks[0]->read();
  const Micros b = rig.clocks[1]->read();
  const Micros c = rig.clocks[2]->read();
  EXPECT_TRUE(a != b || b != c);  // random configs virtually never collide
  rig.run_workers(50);
  EXPECT_EQ(rig.readings[1], rig.readings[0]);
  EXPECT_EQ(rig.readings[2], rig.readings[0]);
}

TEST(CtsAgreementTest, TwoReplicaGroupAgrees) {
  CtsRig rig(2);
  rig.start();
  rig.run_workers(60);
  ASSERT_EQ(rig.readings[0].size(), 60u);
  EXPECT_EQ(rig.readings[1], rig.readings[0]);
}

TEST(CtsAgreementTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    CtsRig rig(3, {.seed = seed});
    rig.start();
    rig.run_workers(40);
    return rig.readings[0];
  };
  EXPECT_EQ(run(5), run(5));
}

// --- Monotonicity -----------------------------------------------------------------

TEST(CtsMonotonicityTest, GroupClockStrictlyIncreases) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(200);
  for (auto& r : rig.readings) {
    ASSERT_EQ(r.size(), 200u);
    for (std::size_t i = 1; i < r.size(); ++i) {
      EXPECT_GT(r[i], r[i - 1]) << "group clock rolled back at reading " << i;
    }
  }
}

TEST(CtsMonotonicityTest, GroupClockNeverExceedsFastestProposal) {
  // Validity: each round's value is some replica's genuine proposal (modulo
  // the monotonic clamp, which never fires in single-thread workloads).
  CtsRig rig(3);
  rig.start();
  rig.run_workers(50);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (const auto& rr : rig.rounds[i]) {
      if (rr.winner_replica == ReplicaId{i}) {
        // At the winner, the group clock equals its own proposal.
        EXPECT_EQ(rr.group_clock, rr.physical_clock + (rr.offset_after));
      }
    }
  }
}

// --- Offset maintenance --------------------------------------------------------------

TEST(CtsOffsetTest, OffsetEqualsGroupClockMinusPhysical) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(30);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (const auto& rr : rig.rounds[i]) {
      EXPECT_EQ(rr.offset_after, rr.group_clock - rr.physical_clock);
    }
  }
}

TEST(CtsOffsetTest, FirstRoundUsesRawPhysicalClock) {
  // Paper Figure 2, lines 1-2: offset starts at zero, so the first CCS
  // message proposes the raw physical clock value of whichever replica
  // wins the first round.
  CtsRig rig(3);
  rig.start();
  rig.run_workers(1);
  const Micros v = rig.readings[0][0];
  bool matches_someone = false;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& rr = rig.rounds[i][0];
    if (rr.winner_replica == ReplicaId{i}) {
      matches_someone = (v == rr.physical_clock);
    }
  }
  EXPECT_TRUE(matches_someone);
}

TEST(CtsOffsetTest, OffsetTrendIsDecreasingWithoutCompensation) {
  // Section 3.3 / Figure 6(b): because the winner's proposal excludes the
  // communication delay of the previous round, offsets drift downward.
  CtsRig rig(3);
  rig.start();
  rig.run_workers(300);
  const auto& rs = rig.rounds[0];
  ASSERT_GE(rs.size(), 300u);
  EXPECT_LT(rs.back().offset_after, rs.front().offset_after);
}

// --- Winner / synchronizer behavior ------------------------------------------------------

TEST(CtsWinnerTest, SynchronizerRotatesAmongReplicas) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(200);
  std::set<std::uint32_t> winners;
  for (const auto& rr : rig.rounds[0]) winners.insert(rr.winner_replica.value);
  // With randomized inter-op delays every replica should win sometimes
  // (paper Figure 6(a): "the synchronizer is constantly changing").
  EXPECT_GE(winners.size(), 2u);
}

TEST(CtsWinnerTest, AllReplicasAgreeOnTheWinnerSequence) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(80);
  for (std::uint32_t i = 1; i < 3; ++i) {
    ASSERT_EQ(rig.rounds[i].size(), rig.rounds[0].size());
    for (std::size_t k = 0; k < rig.rounds[0].size(); ++k) {
      EXPECT_EQ(rig.rounds[i][k].winner_replica, rig.rounds[0][k].winner_replica);
      EXPECT_EQ(rig.rounds[i][k].group_clock, rig.rounds[0][k].group_clock);
    }
  }
}

// --- Duplicate suppression ------------------------------------------------------------------

TEST(CtsSuppressionTest, RoughlyOneCcsMessagePerRoundOnTheWire) {
  CtsRig rig(3);
  rig.start();
  const int kOps = 200;
  rig.run_workers(kOps);
  std::uint64_t wire_total = 0;
  for (auto& ep : rig.eps) wire_total += ep->stats().on_wire(gcs::MsgType::kCcs);
  // The paper reports #CCS messages on the wire == #rounds (1 + 9977 + 22
  // for 10,000 rounds).  Allow a small margin for in-flight copies that
  // could not be cancelled.
  EXPECT_GE(wire_total, static_cast<std::uint64_t>(kOps));
  EXPECT_LE(wire_total, static_cast<std::uint64_t>(kOps) * 3 / 2);
}

TEST(CtsSuppressionTest, SlowReplicaAvoidsSendingEntirely) {
  CtsRig rig(3);
  rig.start();
  // Replica 2's worker starts 5 ms late every round-trip: its CCS message
  // is always already buffered when it performs the operation.
  auto slow_worker = [&](std::uint32_t i) -> sim::Task {
    for (int k = 0; k < 30; ++k) {
      co_await rig.sim.delay(5'000);
      const Micros v = co_await rig.svcs[i]->get_time(kThread0);
      rig.readings[i].push_back(v);
    }
  };
  auto fast_worker = [&](std::uint32_t i) -> sim::Task {
    for (int k = 0; k < 30; ++k) {
      co_await rig.sim.delay(100);
      const Micros v = co_await rig.svcs[i]->get_time(kThread0);
      rig.readings[i].push_back(v);
    }
  };
  fast_worker(0);
  fast_worker(1);
  slow_worker(2);
  rig.sim.run_for(10'000'000);
  ASSERT_EQ(rig.readings[2].size(), 30u);
  EXPECT_EQ(rig.readings[2], rig.readings[0]);
  // The slow replica found every round's message already buffered.
  EXPECT_GT(rig.svcs[2]->stats().sends_avoided, 20u);
  EXPECT_LT(rig.svcs[2]->stats().sends_initiated, 5u);
}

// --- Common input buffer ----------------------------------------------------------------------

TEST(CtsCommonBufferTest, MessagesForUnregisteredThreadArePreserved) {
  CtsRig rig(2);
  rig.start();
  const ThreadId late_thread{9};
  // Replica 0 runs a round on thread 9 before replica 1 has registered it.
  Micros v0 = 0, v1 = 0;
  rig.svcs[0]->register_thread(late_thread);
  rig.svcs[0]->start_round(late_thread, ClockCallType::kGettimeofday, [&](Micros v) { v0 = v; });
  rig.sim.run_for(200'000);
  ASSERT_NE(v0, 0);
  // Now replica 1 creates the thread and performs the same logical op: the
  // parked message must complete it without any new CCS send.
  const auto sends_before = rig.svcs[1]->stats().sends_initiated;
  rig.svcs[1]->register_thread(late_thread);
  rig.svcs[1]->start_round(late_thread, ClockCallType::kGettimeofday, [&](Micros v) { v1 = v; });
  rig.sim.run_for(200'000);
  EXPECT_EQ(v1, v0);
  EXPECT_EQ(rig.svcs[1]->stats().sends_initiated, sends_before);
}

TEST(CtsCommonBufferTest, MultipleThreadsHaveIndependentRounds) {
  CtsRig rig(2);
  rig.start();
  // Run two logical threads on both replicas.
  std::vector<std::vector<Micros>> r0(2), r1(2);
  auto w = [&](std::uint32_t i, ThreadId t, std::vector<Micros>& out) -> sim::Task {
    for (int k = 0; k < 10; ++k) {
      co_await rig.sim.delay(100);
      out.push_back(co_await rig.svcs[i]->get_time(t));
    }
  };
  w(0, ThreadId{1}, r0[0]);
  w(0, ThreadId{2}, r0[1]);
  w(1, ThreadId{1}, r1[0]);
  w(1, ThreadId{2}, r1[1]);
  rig.sim.run_for(10'000'000);
  ASSERT_EQ(r0[0].size(), 10u);
  ASSERT_EQ(r0[1].size(), 10u);
  EXPECT_EQ(r0[0], r1[0]);  // thread 1 agrees across replicas
  EXPECT_EQ(r0[1], r1[1]);  // thread 2 agrees across replicas
}

// --- Stats ------------------------------------------------------------------------------------

TEST(CtsStatsTest, RoundsCompletedMatchesOperations) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(25);
  for (auto& svc : rig.svcs) {
    EXPECT_EQ(svc->stats().rounds_completed, 25u);
  }
}

TEST(CtsStatsTest, RoundsWonSumToTotalRounds) {
  CtsRig rig(3);
  rig.start();
  rig.run_workers(50);
  std::uint64_t won = 0;
  for (auto& svc : rig.svcs) won += svc->stats().rounds_won;
  EXPECT_EQ(won, 50u);
}

// --- Syscall facade ------------------------------------------------------------------------------

TEST(TimeSyscallsTest, ConversionsPreserveResolution) {
  EXPECT_EQ(TimeVal::from_us(3'000'042).tv_sec, 3);
  EXPECT_EQ(TimeVal::from_us(3'000'042).tv_usec, 42);
  EXPECT_EQ(TimeVal::from_us(3'000'042).total_us(), 3'000'042);
  EXPECT_EQ(TimeB::from_us(3'456'789).time, 3);
  EXPECT_EQ(TimeB::from_us(3'456'789).millitm, 456);
  EXPECT_EQ(TimeB::from_us(3'456'789).total_us(), 3'456'000);
}

TEST(TimeSyscallsTest, DifferentSyscallsAgreeAcrossReplicas) {
  CtsRig rig(2);
  rig.start();
  std::vector<TimeVal> tv(2);
  std::vector<std::int64_t> tt(2);
  std::vector<TimeB> tb(2);
  auto w = [&](std::uint32_t i) -> sim::Task {
    TimeSyscalls sys(*rig.svcs[i], ThreadId{3});
    co_await rig.sim.delay(100 + i * 71);
    tv[i] = co_await sys.gettimeofday();
    co_await rig.sim.delay(100);
    tt[i] = co_await sys.time();
    co_await rig.sim.delay(100);
    tb[i] = co_await sys.ftime();
  };
  w(0);
  w(1);
  rig.sim.run_for(5'000'000);
  EXPECT_EQ(tv[0], tv[1]);
  EXPECT_EQ(tt[0], tt[1]);
  EXPECT_EQ(tb[0], tb[1]);
  EXPECT_GT(tv[0].total_us(), 0);
}

TEST(TimeSyscallsTest, CallTypeTravelsInTheRound) {
  CtsRig rig(2);
  rig.start();
  auto w = [&](std::uint32_t i) -> sim::Task {
    TimeSyscalls sys(*rig.svcs[i], ThreadId{4});
    co_await rig.sim.delay(50 + i * 31);
    (void)co_await sys.time();
  };
  w(0);
  w(1);
  rig.sim.run_for(2'000'000);
  ASSERT_FALSE(rig.rounds[0].empty());
  EXPECT_EQ(rig.rounds[0].back().call_type, ClockCallType::kTime);
  EXPECT_STREQ(to_string(ClockCallType::kTime), "time");
}

// --- Fast-forward guard -----------------------------------------------------------------------

TEST(CtsForwardGuardTest, SteppedClockCannotYankTheGroupClockForward) {
  // Replica 0's hardware clock is stepped +60s mid-run.  With the guard
  // enabled, even rounds it WINS advance the group clock by at most the
  // configured bound, and agreement is preserved.
  CtsRig rig(3, {.max_forward_jump_us = 50'000});
  rig.start();
  rig.run_workers(30);
  rig.clocks[0]->step(60'000'000);
  for (auto& r : rig.readings) r.clear();
  rig.run_workers(60);
  for (std::size_t i = 1; i < rig.readings[0].size(); ++i) {
    const Micros delta = rig.readings[0][i] - rig.readings[0][i - 1];
    EXPECT_GT(delta, 0);
    EXPECT_LE(delta, 50'000) << "guard failed at reading " << i;
  }
  EXPECT_EQ(rig.readings[1], rig.readings[0]);
  EXPECT_EQ(rig.readings[2], rig.readings[0]);
}

TEST(CtsForwardGuardTest, GuardOffAllowsTheJump) {
  CtsRig rig(3, {.max_forward_jump_us = 0});
  rig.start();
  rig.run_workers(10);
  const Micros before_step = rig.readings[0].back();
  for (auto& c : rig.clocks) c->step(60'000'000);  // everyone steps: jump is "real"
  for (auto& r : rig.readings) r.clear();
  rig.run_workers(10);
  // With no guard, the group clock follows the (unanimous) step: the first
  // reading after the step jumps by ~60s.
  EXPECT_GT(rig.readings[0].front() - before_step, 50'000'000);
  EXPECT_EQ(rig.readings[1], rig.readings[0]);
}

// --- Checkpoint / restore ----------------------------------------------------------------------

TEST(CtsCheckpointTest, RoundNumbersSurviveCheckpointRestore) {
  CtsRig rig(2);
  rig.start();
  rig.run_workers(10);
  const Bytes cp = rig.svcs[0]->checkpoint();

  // A brand-new service restored from the checkpoint continues the round
  // numbering rather than restarting from zero.
  CtsRig rig2(2, {.seed = 99});
  rig2.start();
  rig2.svcs[0]->restore(cp);
  EXPECT_EQ(rig2.svcs[0]->last_group_clock(), rig.svcs[0]->last_group_clock());
}

TEST(CtsCheckpointTest, CheckpointIsDeterministic) {
  CtsRig rig(2);
  rig.start();
  rig.run_workers(5);
  EXPECT_EQ(rig.svcs[0]->checkpoint(), rig.svcs[0]->checkpoint());
}

// --- Teardown with a round in flight ----------------------------------------------------

// Lives in the coroutine frame, so its destructor runs exactly when the
// frame is destroyed — on normal completion or, for a round that can never
// complete, when the torn-down service drops the parked continuation.
constexpr ConnectionId kStampConn{200};

struct FrameProbe {
  bool* destroyed;
  ~FrameProbe() { *destroyed = true; }
};

sim::Task await_unfinishable_round(ConsistentTimeService& svc, bool* destroyed, bool* resumed) {
  FrameProbe probe{destroyed};
  (void)co_await svc.get_time(kThread0);
  *resumed = true;
}

TEST(CtsTeardownTest, ServiceDestroyedMidRoundDestroysSuspendedFrame) {
  // Regression for the historical frame leak: a logical thread blocked in a
  // clock-related operation parked its frame behind a bare callback; tearing
  // the service down destroyed the callback but not the frame, and every
  // failover/recovery test tripped LeakSanitizer.
  bool destroyed = false;
  bool resumed = false;
  {
    // Passive style: replica 1 is a backup, so its round never sends a
    // proposal, and no other replica runs this thread — the await can
    // never complete.
    CtsRig rig(2, {.style = ReplicationStyle::kPassive});
    rig.start();
    await_unfinishable_round(*rig.svcs[1], &destroyed, &resumed);
    rig.sim.run_for(200'000);
    EXPECT_FALSE(destroyed);  // parked on the in-flight round, frame alive
    EXPECT_FALSE(resumed);
  }  // ~Rig destroys the service with the round still in flight
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(resumed);
}

sim::Task await_time_once(ConsistentTimeService& svc, bool* destroyed, Micros* value) {
  FrameProbe probe{destroyed};
  *value = co_await svc.get_time(kThread0);
}

sim::Task await_syscall_once(ConsistentTimeService& svc, bool* destroyed, Micros* value) {
  FrameProbe probe{destroyed};
  TimeSyscalls sys(svc, kThread0);
  *value = co_await sys.clock_gettime();
}

sim::Task await_id_once(ConsistentIdGenerator& gen, bool* destroyed, std::uint64_t* id) {
  FrameProbe probe{destroyed};
  *id = co_await gen.make_id();
}

sim::Task await_send_once(CausalMessenger& msgr, bool* destroyed, Micros* ts) {
  FrameProbe probe{destroyed};
  Bytes body(1, 42);  // GCC 12 rejects a braced temporary inside co_await
  *ts = co_await msgr.send(kGroup, kStampConn, 1, std::move(body));
}

TEST(CtsTeardownTest, ReentrantCoroutineRejectionResumesWithNoTime) {
  // Regression for a use-after-free: the rejection path in start_round_impl
  // used to let the by-value RoundContinuation destroy the suspended frame
  // on `return false`, after which the awaiter wrote kNoTime into the freed
  // frame and scheduled a resume (and second destroy) of the dead handle.
  // A rejected round must instead resume its frame with kNoTime, and the
  // frame must be destroyed exactly once (ASan verifies the "once").
  bool d_first = false, r_first = false;
  bool d_time = false, d_syscall = false, d_id = false, d_send = false;
  Micros v_time = 0, v_syscall = 0, v_send = 0;
  std::uint64_t v_id = 0;
  // Passive style: replica 1 is a backup, so its round never sends a
  // proposal and stays in flight indefinitely.
  CtsRig rig(2, {.style = ReplicationStyle::kPassive});
  rig.start();
  std::size_t stamped_delivered = 0;
  for (auto& ep : rig.eps) {
    ep->subscribe(kGroup, [&](const gcs::Message& m) {
      if (m.hdr.conn == kStampConn) ++stamped_delivered;
    });
  }
  await_unfinishable_round(*rig.svcs[1], &d_first, &r_first);
  rig.sim.run_for(10'000);
  ASSERT_FALSE(d_first);  // first round parked, frame alive

  // Further rounds on the same thread while the first is in flight are
  // rejected.  All four coroutine facades share one round awaiter —
  // exercise each of them.
  ConsistentIdGenerator gen(*rig.svcs[1], kThread0, /*ns=*/1);
  CausalMessenger msgr(*rig.eps[1], *rig.svcs[1], kGroup, kThread0);
  await_time_once(*rig.svcs[1], &d_time, &v_time);
  await_syscall_once(*rig.svcs[1], &d_syscall, &v_syscall);
  await_id_once(gen, &d_id, &v_id);
  await_send_once(msgr, &d_send, &v_send);
  rig.sim.run_for(100'000);
  EXPECT_TRUE(d_time);  // resumed, ran to completion, frame freed
  EXPECT_EQ(v_time, kNoTime);
  EXPECT_TRUE(d_syscall);
  EXPECT_EQ(v_syscall, kNoTime);
  EXPECT_TRUE(d_id);
  EXPECT_EQ(v_id, ConsistentIdGenerator::mix(kNoTime, 1, 1));
  EXPECT_TRUE(d_send);
  EXPECT_EQ(v_send, kNoTime);
  EXPECT_EQ(stamped_delivered, 0u) << "a rejected send must put nothing on the wire";
  EXPECT_EQ(rig.svcs[1]->stats().reentrant_rejected, 4u);
  // The in-flight round and its parked frame are untouched by the rejections.
  EXPECT_FALSE(d_first);
  EXPECT_FALSE(r_first);
}

TEST(CtsTeardownTest, CompletedRoundStillRunsFrameToCompletion) {
  // The destroy-on-drop machinery must not fire for rounds that complete
  // normally: the frame resumes, finishes, and frees itself exactly once.
  bool destroyed = false;
  bool resumed = false;
  {
    CtsRig rig(2);
    rig.start();
    await_unfinishable_round(*rig.svcs[0], &destroyed, &resumed);  // active: completes
    rig.sim.run_for(2'000'000);
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(destroyed);
  }
}

TEST(CtsSpecialRoundTest, SecondSpecialRoundInFlightIsRejected) {
  // Special rounds are serialized by the state-transfer protocol; a second
  // one while the first is in flight is a caller bug.  It is rejected loudly
  // and its callback never runs, while the first round still completes.
  CtsRig rig(2);
  rig.start();
  ConsistentTimeService& svc = *rig.svcs[0];
  Micros first = kNoTime;
  bool second_ran = false;
  ASSERT_TRUE(svc.run_special_round([&](Micros v) { first = v; }));
  EXPECT_FALSE(svc.run_special_round([&](Micros) { second_ran = true; }));
  EXPECT_EQ(svc.stats().reentrant_rejected, 1u);
  const auto calls = rig.rec.trace().select(obs::EventKind::kCcsReentrantCall);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].a, static_cast<std::int64_t>(ConsistentTimeService::kSpecialThread.value));

  rig.sim.run_for(1'000'000);
  EXPECT_NE(first, kNoTime);
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(svc.stats().special_rounds, 1u);
  // The peer, not blocked on the round, adopted the same group clock.
  EXPECT_EQ(rig.svcs[1]->stats().special_rounds, 1u);
  EXPECT_EQ(rig.svcs[1]->last_group_clock(), first);
}

}  // namespace
}  // namespace cts::ccs
