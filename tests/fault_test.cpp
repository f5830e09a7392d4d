// Fault-injection tests: primary failover (semi-active and passive),
// replica recovery with state transfer and the special CCS round, the
// primary/backup baseline's clock roll-back anomaly, NTP discipline, and
// the drift-compensation strategies.
#include <gtest/gtest.h>

#include <cstdio>

#include "app/scenario.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"
#include "baseline/baseline_clocks.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

std::vector<Micros> reply_times(const std::vector<Bytes>& replies) {
  std::vector<Micros> out;
  for (const auto& r : replies) {
    BytesReader rd(r);
    const auto sec = rd.i64();
    out.push_back(sec * 1'000'000 + rd.i64());
  }
  return out;
}

// --- Failover: semi-active --------------------------------------------------------

TEST(FailoverTest, SemiActivePrimaryCrashKeepsClientProgressing) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};

  std::vector<Bytes> replies;
  drive_client(tb, 40, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 10; }, 60'000'000));

  // Kill the primary mid-stream.
  int primary = -1;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.server(s).is_primary()) primary = static_cast<int>(s);
  }
  ASSERT_GE(primary, 0);
  tb.crash_server(static_cast<std::uint32_t>(primary));

  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 40; }, 120'000'000));

  // Exactly one survivor is primary now, and it is not the dead one.
  int new_primary = -1;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (static_cast<int>(s) != primary && tb.server(s).is_primary()) new_primary = (int)s;
  }
  EXPECT_NE(new_primary, -1);
  EXPECT_NE(new_primary, primary);
}

TEST(FailoverTest, SemiActiveClockNeverRollsBackAcrossFailover) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  cfg.max_clock_offset_us = 800'000;  // strongly disagreeing hardware clocks
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};

  std::vector<Bytes> replies;
  drive_client(tb, 30, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 8; }, 60'000'000));
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.server(s).is_primary()) tb.crash_server(s);
  }
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 30; }, 120'000'000));

  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << "clock rolled back across failover at reply " << i;
  }
}

TEST(FailoverTest, SemiActiveSurvivorsStayConsistent) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 30, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 10; }, 60'000'000));
  // Crash a BACKUP this time; the primary continues.
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (!tb.server(s).is_primary()) {
      tb.crash_server(s);
      break;
    }
  }
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 30; }, 120'000'000));
  tb.sim().run_for(1'000'000);
  std::vector<const TimeServerApp*> live;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.clock_of(tb.server_node(s)).alive()) live.push_back(&tb.server_app(s));
  }
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0]->time_history(), live[1]->time_history());
}

// --- Failover: passive ---------------------------------------------------------------

TEST(FailoverTest, PassivePromotionReplaysLoggedRequests) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kPassive;
  cfg.checkpoint_every = 5;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};

  std::vector<Bytes> replies;
  drive_client(tb, 40, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 12; }, 60'000'000));

  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.server(s).is_primary()) tb.crash_server(s);
  }
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 40; }, 200'000'000));

  // The new primary replayed whatever the checkpoint did not cover.
  std::uint64_t replayed = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.clock_of(tb.server_node(s)).alive()) replayed += tb.server(s).stats().requests_replayed;
  }
  EXPECT_GT(replayed, 0u);

  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << "passive failover rolled the clock back at " << i;
  }
}

TEST(FailoverTest, FastRestartOfPrimaryDoesNotLeaveAGhostMember) {
  // Regression test (found by fuzzing): the primary's host crashes and
  // reboots FASTER than the ring's token-loss detection, so Totem never
  // removes the node and the old (node, replica) entry would linger in the
  // group view — a dead primary that never yields.  The recovering process
  // must evict its predecessor incarnation explicitly.
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};

  std::vector<Bytes> replies;
  drive_client(tb, 30, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 8; }, 60'000'000));

  int old_primary = -1;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.server(s).is_primary()) old_primary = static_cast<int>(s);
  }
  ASSERT_GE(old_primary, 0);
  tb.crash_server(static_cast<std::uint32_t>(old_primary));
  // Restart well inside the 5ms token-loss window: the ring never shrinks.
  tb.sim().run_for(2'000);
  bool recovered = false;
  tb.restart_server(static_cast<std::uint32_t>(old_primary), [&] { recovered = true; });

  // A backup must still promote, requests must still flow, and the fast
  // restart must complete its state transfer.
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 30; }, 200'000'000));
  ASSERT_TRUE(run_until(tb, [&] { return recovered; }, 200'000'000));
  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
}

// --- Recovery -------------------------------------------------------------------------

TEST(RecoveryTest, RestartedReplicaRejoinsViaStateTransfer) {
  Testbed tb({});
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 60, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 15; }, 60'000'000));

  tb.crash_server(2);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 25; }, 60'000'000));

  bool recovered = false;
  tb.restart_server(2, [&] { recovered = true; });
  ASSERT_TRUE(run_until(tb, [&] { return recovered; }, 120'000'000));
  EXPECT_TRUE(tb.server(2).recovered());

  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 60; }, 200'000'000));
  tb.sim().run_for(2'000'000);

  // All three replicas hold identical state again (the recovered one
  // includes history from before its crash via the checkpoint).
  EXPECT_EQ(tb.server_app(2).time_history(), tb.server_app(0).time_history());
  EXPECT_EQ(tb.server_app(2).counter(), tb.server_app(0).counter());
}

TEST(RecoveryTest, SpecialRoundInitializesTheNewClock) {
  Testbed tb({});
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 30, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 10; }, 60'000'000));

  tb.crash_server(2);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 15; }, 60'000'000));

  bool recovered = false;
  tb.restart_server(2, [&] { recovered = true; });
  ASSERT_TRUE(run_until(tb, [&] { return recovered; }, 120'000'000));

  // The survivors served a state transfer and ran a special round.
  std::uint64_t specials = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    specials += tb.server(s).time_service().stats().special_rounds;
  }
  EXPECT_GE(specials, 1u);
  EXPECT_GE(tb.server(2).time_service().stats().special_rounds, 1u);

  // The recovered replica's next group-clock reads agree with the others.
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 30; }, 120'000'000));
  tb.sim().run_for(2'000'000);
  EXPECT_EQ(tb.server_app(2).time_history(), tb.server_app(0).time_history());
}

TEST(RecoveryTest, MonotonicityHoldsAcrossRecovery) {
  // Replica 1 crashes about ten replies in and restarts ten replies later;
  // the scenario checks reply monotonicity, agreement, fail-stop and that
  // the restarted replica finished state transfer.
  ScenarioSpec spec;
  spec.invocations = 50;
  spec.faults = {{FaultEvent::Kind::kCrash, 1, 209'000}, {FaultEvent::Kind::kRecover, 1, 218'000}};
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.replies, 50u);
  EXPECT_TRUE(r.ok()) << r.report;
  EXPECT_TRUE(r.all_alive);
  EXPECT_EQ(r.unrecovered, 0u) << "the restarted replica never finished state transfer";
}

TEST(RecoveryTest, RetriedGetStateCrossingItsOwnReplyIsDroppedNotDoubleApplied) {
  // Regression test for the retry/reply race: the retry timer is far below
  // the end-to-end state-transfer latency, so the recovering replica
  // re-issues GET_STATE while the reply to its FIRST request is still in
  // flight.  The stale reply pairs with a superseded recovery epoch — its
  // checkpoint does not cover the requests ordered between the two
  // GET_STATEs — so applying it (and then draining the queue rebuilt for
  // the NEW epoch) would skip or double-apply requests.  The fix tags every
  // kState reply with its GET_STATE's epoch and drops mismatches.
  TestbedConfig cfg;
  // Tuned against the measured transfer timeline: the first GET_STATE is
  // ordered ~2.6ms after restart and its reply lands ~3.0ms after, so a 3ms
  // retry re-issues while that first reply is still in flight.
  cfg.get_state_retry_us = 3'000;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 60, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 15; }, 60'000'000));

  tb.crash_server(2);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 25; }, 60'000'000));
  bool recovered = false;
  tb.restart_server(2, [&] { recovered = true; });
  // A dense burst of fire-and-forget invocations straddling the retry
  // point.  Some of these are ordered between the first GET_STATE and its
  // re-issue — exactly the traffic that sits in the recoverer's replay
  // queue while only the SECOND epoch's checkpoint covers it.
  for (Micros off = 2'000; off <= 3'200; off += 100) {
    tb.sim().after(off, [&tb] { tb.client().invoke(make_get_time_request(), [](const Bytes&) {}); });
  }
  ASSERT_TRUE(run_until(tb, [&] { return recovered; }, 200'000'000));

  // The race actually happened: the two healthy replicas served more than
  // one transfer epoch (each active replica serves every GET_STATE, so one
  // epoch accounts for exactly two serves)...
  std::uint64_t served = 0;
  for (std::uint32_t s = 0; s < 2; ++s) served += tb.server(s).stats().state_transfers_served;
  EXPECT_GE(served, 4u);
  // ...yet the recovering replica adopted exactly one checkpoint: every
  // reply from a superseded epoch was dropped, not applied.
  EXPECT_EQ(tb.server(2).stats().checkpoints_applied, 1u);

  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 60; }, 300'000'000));
  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
  tb.sim().run_for(2'000'000);
  // No request was lost or applied twice: all three replicas agree.
  EXPECT_EQ(tb.server_app(2).time_history(), tb.server_app(0).time_history());
  EXPECT_EQ(tb.server_app(2).counter(), tb.server_app(0).counter());
}

TEST(RecoveryTest, RepeatedCrashRecoverCycles) {
  // Each replica in turn crashes and rejoins under a slow, steady client.
  ScenarioSpec spec;
  spec.invocations = 60;
  spec.think_us = 50'000;
  for (std::uint32_t victim = 0; victim < 3; ++victim) {
    const Micros at = 500'000 + 700'000 * static_cast<Micros>(victim);
    spec.faults.push_back({FaultEvent::Kind::kCrash, victim, at});
    spec.faults.push_back({FaultEvent::Kind::kRecover, victim, at + 200'000});
  }
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.replies, 60u);
  EXPECT_TRUE(r.ok()) << r.report;
  // Every replica is back and has rejoined, so the consistency check
  // compared all three histories.
  EXPECT_TRUE(r.all_alive);
  EXPECT_EQ(r.unrecovered, 0u);
  EXPECT_TRUE(r.consistent);
}

// --- Baseline: primary/backup clock roll-back (paper Section 1) ------------------------

/// BaselineRig input: random crystals, each disciplined by its own NTP
/// reference.  The seed pins the clocks and the schedule.
struct NtpDisciplined {
  std::uint64_t seed;
};

struct BaselineRig {
  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  std::vector<std::unique_ptr<clock::PhysicalClock>> clocks;
  std::vector<std::unique_ptr<clock::ReferenceTimeSource>> refs;
  std::vector<std::unique_ptr<baseline::NtpDisciplinedClock>> ntps;
  std::vector<std::unique_ptr<baseline::PrimaryBackupClockService>> svcs;

  /// Primary's clock runs AHEAD of the backups' by `gap_us`.  Three nodes,
  /// so the two survivors of a primary crash still form a majority.
  explicit BaselineRig(Micros gap_us) : sim(1), net(sim, {}) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      add_node(i);
      clock::ClockConfig ccfg;
      ccfg.initial_offset_us = (i == 0) ? gap_us : 0;
      clocks.push_back(std::make_unique<clock::PhysicalClock>(sim, ccfg));
      add_service(i, [c = clocks.back().get()] { return c->read(); });
    }
    start(100'000);
  }

  /// The primary and backups read NTP-disciplined clocks.  The discipline
  /// gets 20 s to converge before the ring forms.
  explicit BaselineRig(NtpDisciplined ntp) : sim(ntp.seed), net(sim, {}) {
    Rng crng(ntp.seed * 31 + 7);
    for (std::uint32_t i = 0; i < 3; ++i) {
      add_node(i);
      clocks.push_back(
          std::make_unique<clock::PhysicalClock>(sim, clock::random_clock_config(crng)));
      refs.push_back(std::make_unique<clock::ReferenceTimeSource>(sim, crng.fork(), 500));
      ntps.push_back(
          std::make_unique<baseline::NtpDisciplinedClock>(sim, *clocks.back(), *refs.back()));
      add_service(i, [c = ntps.back().get()] { return c->read(); });
    }
    sim.run_for(20'000'000);
    start(100'000);
  }

 private:
  void add_node(std::uint32_t i) {
    totem::TotemConfig tcfg;
    tcfg.universe = {NodeId{0}, NodeId{1}, NodeId{2}};
    totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
  }
  void add_service(std::uint32_t i, baseline::PrimaryBackupClockService::ClockFn read) {
    svcs.push_back(std::make_unique<baseline::PrimaryBackupClockService>(
        sim, *eps.back(), std::move(read), GroupId{1}, ConnectionId{50}, ReplicaId{i}));
  }
  void start(Micros settle_us) {
    svcs[0]->set_primary(true);
    for (auto& t : totems) t->start();
    sim.run_for(settle_us);
  }
};

TEST(BaselineTest, PrimaryBackupRollsBackOnFailover) {
  BaselineRig rig(500'000);  // primary's clock 500ms ahead

  // Both replicas perform the same logical operations (semi-active style);
  // the backup adopts the primary's distributed values.
  std::vector<Micros> readings;
  auto reader = [&](std::uint32_t r, bool record) -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await rig.sim.delay(1'000);
      const Micros v = co_await rig.svcs[r]->get_time(ThreadId{0});
      if (record) readings.push_back(v);
    }
  };
  reader(0, false);
  reader(1, true);
  while (readings.size() < 10 && rig.sim.now() < 60'000'000) {
    rig.sim.run_until(rig.sim.now() + 1'000);
  }
  ASSERT_EQ(readings.size(), 10u);

  // Crash the primary; promote the backup; read again immediately — from
  // the backup's raw clock, 500ms behind: the reading ROLLS BACK.
  rig.totems[0]->crash();
  rig.clocks[0]->fail();
  rig.svcs[1]->set_primary(true);
  Micros after_failover = 0;
  auto reader2 = [&]() -> sim::Task {
    after_failover = co_await rig.svcs[1]->get_time(ThreadId{0});
  };
  reader2();
  rig.sim.run_for(5'000'000);
  ASSERT_NE(after_failover, 0);
  EXPECT_LT(after_failover, readings.back())
      << "expected the baseline to exhibit clock roll-back";
}

TEST(BaselineTest, PrimaryBackupFastForwardsWhenBackupIsAhead) {
  BaselineRig rig(-500'000);  // primary 500ms BEHIND the backup
  std::vector<Micros> readings;
  auto reader = [&](std::uint32_t r, bool record) -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await rig.sim.delay(1'000);
      const Micros v = co_await rig.svcs[r]->get_time(ThreadId{0});
      if (record) readings.push_back(v);
    }
  };
  reader(0, false);
  reader(1, true);
  while (readings.size() < 5 && rig.sim.now() < 60'000'000) {
    rig.sim.run_until(rig.sim.now() + 1'000);
  }
  ASSERT_EQ(readings.size(), 5u);
  rig.totems[0]->crash();
  rig.clocks[0]->fail();
  rig.svcs[1]->set_primary(true);
  Micros after_failover = 0;
  auto reader2 = [&]() -> sim::Task {
    after_failover = co_await rig.svcs[1]->get_time(ThreadId{0});
  };
  reader2();
  rig.sim.run_for(5'000'000);
  // The jump forward vastly exceeds the elapsed real time (fast-forward).
  EXPECT_GT(after_failover - readings.back(), 400'000);
}

TEST(BaselineTest, NtpShrinksTheRollBackButDoesNotRemoveIt) {
  // Section 1: closely synchronized clocks alleviate the anomaly but do
  // not eliminate it.  Each trial reads through the backup, crashes the
  // primary, and reads again after the ring reconfigured; the jump minus
  // the real time between the two readings is the clock discontinuity.
  constexpr int kTrials = 10;
  int rollbacks = 0;
  Micros worst = 0;
  for (int t = 0; t < kTrials; ++t) {
    BaselineRig rig(NtpDisciplined{2000 + static_cast<std::uint64_t>(t)});
    std::vector<Micros> readings, read_at;
    auto reader = [&](std::uint32_t r, bool record) -> sim::Task {
      for (int i = 0; i < 10; ++i) {
        co_await rig.sim.delay(1'000);
        const Micros v = co_await rig.svcs[r]->get_time(ThreadId{0});
        if (record) {
          readings.push_back(v);
          read_at.push_back(rig.sim.now());
        }
      }
    };
    reader(0, false);
    reader(1, true);
    while (readings.size() < 10 && rig.sim.now() < 120'000'000) {
      rig.sim.run_until(rig.sim.now() + 1'000);
    }
    ASSERT_EQ(readings.size(), 10u);
    const Micros before = readings.back(), before_at = read_at.back();

    rig.totems[0]->crash();
    rig.clocks[0]->fail();
    rig.svcs[1]->set_primary(true);
    Micros after = kNoTime, after_at = 0;
    const Micros after_deadline = rig.sim.now() + 10'000'000;
    auto reader2 = [&]() -> sim::Task {
      co_await rig.sim.delay(15'000);  // past the ring reconfiguration
      after = co_await rig.svcs[1]->get_time(ThreadId{0});
      after_at = rig.sim.now();
    };
    reader2();
    while (after == kNoTime && rig.sim.now() < after_deadline) {
      rig.sim.run_until(rig.sim.now() + 1'000);
    }
    ASSERT_NE(after, kNoTime);
    const Micros d = (after - before) - (after_at - before_at);
    rollbacks += d < 0;
    if (std::abs(d) > std::abs(worst)) worst = d;
    EXPECT_LT(std::abs(d), 1'000) << "trial " << t;
  }
  std::printf("E7 NTP-disciplined primary/backup: %d/%d failovers rolled back, worst "
              "discontinuity %lld us\n",
              rollbacks, kTrials, static_cast<long long>(worst));
  EXPECT_GE(rollbacks, 1);
}

TEST(BaselineTest, CtsDoesNotRollBackInTheSameScenario) {
  // Same adversarial clocks, but the Consistent Time Service in semi-active
  // mode: offsets absorb the clock gap, so failover cannot roll back.
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  cfg.servers = 2;
  cfg.max_clock_offset_us = 800'000;
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 20, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 8; }, 60'000'000));
  for (std::uint32_t s = 0; s < 2; ++s) {
    if (tb.server(s).is_primary()) tb.crash_server(s);
  }
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 20; }, 120'000'000));
  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GT(times[i], times[i - 1]);
}

// --- Hardware clock steps --------------------------------------------------------------

TEST(ClockStepTest, GroupClockAbsorbsAHugeForwardStep) {
  // An operator (or a misbehaving NTP daemon) steps one replica's hardware
  // clock forward by 30 seconds mid-run.  The group clock must not jump:
  // the next round re-derives that replica's offset and life goes on.
  Testbed tb({});
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 40, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 15; }, 60'000'000));
  tb.clock_of(tb.server_node(1)).step(30'000'000);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 40; }, 120'000'000));

  const auto times = reply_times(replies);
  Micros max_delta = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
    max_delta = std::max(max_delta, times[i] - times[i - 1]);
  }
  // No reply-to-reply jump anywhere near the 30s step.  (The stepped
  // replica may briefly win a round with its inflated clock only before
  // its offset re-derives; the monotonic guard and offset arithmetic keep
  // the group clock continuous at the scale of round latency.)
  EXPECT_LT(max_delta, 1'000'000);
  tb.sim().run_for(2'000'000);
  EXPECT_EQ(tb.server_app(0).time_history(), tb.server_app(1).time_history());
}

TEST(ClockStepTest, BackwardStepCannotRollTheGroupClockBack) {
  Testbed tb({});
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Bytes> replies;
  drive_client(tb, 40, replies);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() >= 15; }, 60'000'000));
  // Step ALL the hardware clocks backwards by 5 seconds.
  for (std::uint32_t s = 0; s < 3; ++s) {
    tb.clock_of(tb.server_node(s)).step(-5'000'000);
  }
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 40; }, 120'000'000));
  const auto times = reply_times(replies);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << "group clock rolled back after a hw clock step";
  }
}

// --- NTP discipline -----------------------------------------------------------------------

TEST(NtpTest, DisciplineBoundsClockError) {
  sim::Simulator sim(1);
  clock::ClockConfig ccfg;
  ccfg.initial_offset_us = 200'000;
  ccfg.drift_ppm = 40.0;
  clock::PhysicalClock pc(sim, ccfg);
  clock::ReferenceTimeSource ref(sim, Rng(2), 100);
  baseline::NtpDisciplinedClock ntp(sim, pc, ref);

  // After convergence the disciplined clock stays close to the reference,
  // while the raw clock keeps its offset and drifts further.
  sim.run_until(30'000'000);  // 30 s: plenty of polls
  const Micros real = 1056326400LL * 1000000LL + sim.now();
  EXPECT_LE(std::abs(ntp.read() - real), 5'000);
  EXPECT_GE(std::abs(pc.read() - real), 190'000);
}

TEST(NtpTest, StopFreezesCorrection) {
  sim::Simulator sim(1);
  clock::ClockConfig ccfg;
  ccfg.initial_offset_us = 100'000;
  clock::PhysicalClock pc(sim, ccfg);
  clock::ReferenceTimeSource ref(sim, Rng(2), 100);
  baseline::NtpDisciplinedClock ntp(sim, pc, ref);
  sim.run_until(10'000'000);
  const Micros frozen = ntp.correction();
  ntp.stop();
  sim.run_until(20'000'000);
  EXPECT_EQ(ntp.correction(), frozen);
}

TEST(NtpTest, TwoDisciplinedClocksStillDisagree) {
  // Even "closely synchronized" clocks leave a residual gap — which is why
  // the paper's Figure 1 argument holds regardless of synchronization.
  sim::Simulator sim(1);
  clock::ClockConfig c1, c2;
  c1.drift_ppm = 45.0;
  c2.drift_ppm = -45.0;
  clock::PhysicalClock p1(sim, c1), p2(sim, c2);
  clock::ReferenceTimeSource r1(sim, Rng(3), 500), r2(sim, Rng(4), 500);
  baseline::NtpDisciplinedClock n1(sim, p1, r1), n2(sim, p2, r2);
  sim.run_until(30'000'000);
  Micros max_gap = 0;
  for (int i = 0; i < 100; ++i) {
    sim.run_until(sim.now() + 100'000);
    max_gap = std::max(max_gap, std::abs(n1.read() - n2.read()));
  }
  EXPECT_GT(max_gap, 0);  // never exactly equal
}

// --- Drift compensation (paper Section 3.3) -------------------------------------------------

Micros measure_group_drift(ccs::DriftCompensation strategy, Micros mean_delay, double gain,
                           int rounds) {
  TestbedConfig cfg;
  cfg.drift = strategy;
  cfg.mean_delay_us = mean_delay;
  cfg.reference_gain = gain;
  cfg.max_drift_ppm = 0.0;  // isolate algorithmic drift from crystal drift
  cfg.max_clock_offset_us = 0;
  Testbed tb(cfg);

  clock::ReferenceTimeSource ref(tb.sim(), Rng(9), 200);
  if (strategy == ccs::DriftCompensation::kReferenceBias) {
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      tb.server(s).time_service().set_reference(&ref);
    }
  }
  // Record (group clock − real time) at the moment each round completes.
  Micros last_drift = 0;
  tb.server(0).time_service().set_round_observer([&](const ccs::RoundResult& rr) {
    last_drift = rr.group_clock - (1056326400LL * 1000000LL + tb.sim().now());
  });
  tb.start();
  FailStopCheck fail_stop{tb};

  bool got = false;
  tb.client().invoke(make_burst_request(static_cast<std::uint32_t>(rounds)),
                     [&](const Bytes&) { got = true; });
  const Micros deadline = tb.sim().now() + 600'000'000;
  while (!got && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
  return last_drift;
}

TEST(DriftCompensationTest, UncompensatedGroupClockLagsRealTime) {
  const Micros drift = measure_group_drift(ccs::DriftCompensation::kNone, 0, 0.0, 400);
  // Paper Figure 6(c): "the group clock runs slower than real time".
  EXPECT_LT(drift, -1'000);
}

TEST(DriftCompensationTest, MeanDelayCompensationShrinksTheLag) {
  const Micros none = measure_group_drift(ccs::DriftCompensation::kNone, 0, 0.0, 400);
  // The compensation constant approximates the measured per-round lag
  // (~40us on this simulated testbed; Section 3.3 calls it "necessarily
  // only approximate").
  const Micros mean = measure_group_drift(ccs::DriftCompensation::kMeanDelay, 40, 0.0, 400);
  EXPECT_LT(std::abs(mean), std::abs(none));
}

TEST(DriftCompensationTest, AdaptiveMeanDelayNeedsNoTuning) {
  const Micros none = measure_group_drift(ccs::DriftCompensation::kNone, 0, 0.0, 400);
  const Micros adaptive =
      measure_group_drift(ccs::DriftCompensation::kAdaptiveMeanDelay, 0, 0.0, 400);
  // The online estimate tracks the actual per-round loss without a
  // hand-picked constant.
  EXPECT_LT(std::abs(adaptive), std::abs(none) / 2);
}

TEST(DriftCompensationTest, ReferenceBiasBoundsTheDrift) {
  const Micros none = measure_group_drift(ccs::DriftCompensation::kNone, 0, 0.0, 400);
  const Micros biased =
      measure_group_drift(ccs::DriftCompensation::kReferenceBias, 0, 0.1, 400);
  EXPECT_LT(std::abs(biased), std::abs(none));
  EXPECT_LE(std::abs(biased), 5'000);
}

}  // namespace
}  // namespace cts::app
