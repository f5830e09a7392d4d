// Crash-sweep: fail-stop semantics must hold no matter WHEN a node dies.
//
// The lifecycle-scope work makes a strong claim: after crash_server(s),
// nothing the dead node scheduled — timers, packet deliveries, suspended
// coroutine frames — ever executes again.  A single crash test exercises
// one interleaving; this sweep crashes each server at every event index
// inside a window (`crash:R@evK`), so the crash lands on every kind of
// pending work the node can have in flight (token timers mid-round, CTS
// rounds awaiting their CCS message, GET_STATE retries, RMI replies in the
// network).
//
// Every point is one ScenarioSpec, so the scenario engine checks the two
// observable fail-stop properties on each: the dead node never reads its
// clock again (reads_after_failure), and its Totem counters stay frozen
// from the crash to its restart or the end of the run
// (crashed_node_activity).  Any point replays as
// `ctsim --seed S --invocations 60 --think 900 --fault crash:R@evK`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/scenario.hpp"

namespace cts::app {
namespace {

using ccs::ReplicationStyle;

/// The sweep's workload: 60 time-server calls, 900 us apart, with `faults`.
ScenarioSpec sweep_spec(std::uint64_t seed, ReplicationStyle style,
                        std::vector<FaultEvent> faults) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.style = style;
  spec.invocations = 60;
  spec.think_us = 900;
  spec.faults = std::move(faults);
  return spec;
}

/// `crash:victim@evIDX`.
FaultEvent crash_at(std::uint32_t victim, int idx) {
  return {FaultEvent::Kind::kCrash, victim, idx, FaultEvent::Trigger::kEvent};
}

ScenarioResult expect_fail_stop(const ScenarioSpec& spec) {
  const ScenarioResult r = run_scenario(spec);
  SCOPED_TRACE(to_string(spec.faults.front()));
  EXPECT_EQ(r.reads_after_failure, 0u);
  EXPECT_EQ(r.crashed_node_activity, 0u);
  EXPECT_TRUE(r.ok()) << r.report;
  return r;
}

// The main sweep: each server, every event index in the window.  The
// window starts right after start-up's settle period, where the ring is
// established and the client is mid-stream — the densest mix of pending
// work (token rotation, CCS rounds, request processing).
TEST(CrashSweepTest, EveryServerEveryEventIndexInWindow) {
  for (std::uint32_t victim = 0; victim < 3; ++victim) {
    for (int idx = 0; idx < 24; ++idx) {
      expect_fail_stop(sweep_spec(101, ReplicationStyle::kActive, {crash_at(victim, idx)}));
    }
  }
}

// Crashes interact differently with semi-active replication (the primary
// drives timestamps); sweep a narrower window there too.
TEST(CrashSweepTest, SemiActiveWindow) {
  for (std::uint32_t victim = 0; victim < 3; ++victim) {
    for (int idx = 0; idx < 12; ++idx) {
      expect_fail_stop(sweep_spec(102, ReplicationStyle::kSemiActive, {crash_at(victim, idx)}));
    }
  }
}

// Seed stability: the same (seed, victim, event index) reproduces the same
// run — byte-identical exports and report — so a crash found by the sweep
// can be replayed exactly from its coordinates.
TEST(CrashSweepTest, SweepScheduleIsSeedStableAcrossRuns) {
  for (int idx : {0, 3, 7, 11, 16}) {
    const ScenarioSpec spec = sweep_spec(103, ReplicationStyle::kActive, {crash_at(1, idx)});
    const ScenarioResult a = run_scenario(spec);
    const ScenarioResult b = run_scenario(spec);
    SCOPED_TRACE("event_index=" + std::to_string(idx));
    EXPECT_EQ(a.export_digest, b.export_digest);
    EXPECT_EQ(a.report, b.report);
    EXPECT_TRUE(a.ok()) << a.report;
  }
}

// Crash-then-restart at swept indices: recovery must not resurrect any of
// the pre-crash node's work.  The tripwire counts reads between the crash
// and the restart (the restarted incarnation legitimately reads its
// clock), and the restarted replica must finish rejoining.
TEST(CrashSweepTest, RestartAfterSweptCrashKeepsTripwireClean) {
  for (int idx : {2, 9, 17}) {
    ScenarioSpec spec = sweep_spec(104, ReplicationStyle::kActive,
                                   {crash_at(1, idx), {FaultEvent::Kind::kRecover, 1, 4'200'000}});
    spec.invocations = 40;
    const ScenarioResult r = expect_fail_stop(spec);
    EXPECT_TRUE(r.all_alive);
    EXPECT_EQ(r.unrecovered, 0u);
  }
}

}  // namespace
}  // namespace cts::app
