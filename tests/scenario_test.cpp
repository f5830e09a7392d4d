// The scenario engine (app/scenario.hpp): argument parsing, and seed-pinned
// regressions for bugs its shared checks and sweeps turned up.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/scenario.hpp"

namespace cts::app {
namespace {

ScenarioArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "ctsim");
  return parse_scenario_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ScenarioArgsTest, SeedTakesOneAListOrARange) {
  EXPECT_EQ(parse({}).seeds, std::vector<std::uint64_t>{1});
  EXPECT_EQ(parse({"--seed", "42"}).seeds, std::vector<std::uint64_t>{42});
  EXPECT_EQ(parse({"--seed", "3,5,9"}).seeds, (std::vector<std::uint64_t>{3, 5, 9}));
  EXPECT_EQ(parse({"--seed", "1-4"}).seeds, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(parse({"--seed", "7,1-2"}).seeds, (std::vector<std::uint64_t>{7, 1, 2}));
  const ScenarioArgs a = parse({"--seed", "9-10", "--kv"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.spec.seed, 9u);
  EXPECT_TRUE(a.spec.kv);
}

TEST(ScenarioArgsTest, RejectsMalformedAndContradictoryArguments) {
  EXPECT_EQ(parse({"--seed", "4-2"}).error, "usage");
  EXPECT_EQ(parse({"--seed", "1,"}).error, "usage");
  EXPECT_EQ(parse({"--seed"}).error, "usage");
  EXPECT_EQ(parse({"--style", "lazy"}).error, "usage");
  EXPECT_EQ(parse({"--no-such-flag"}).error, "usage");
  EXPECT_FALSE(parse({"--rings", "2", "--durable"}).error.empty());
  EXPECT_FALSE(parse({"--seed", "1-2", "--trace-jsonl", "t.jsonl"}).error.empty());
  EXPECT_TRUE(parse({"--seed", "1-2"}).error.empty());
}

// Degenerate counts are usage errors (ctsim exits 2), not runs: zero
// shards crashed the process, zero servers idled through the drain, a
// negative invocation count printed `replies: 0 of -5`, zero rings ran one,
// and sharded passive replication ran although ReplicaManager forbids it.
TEST(ScenarioArgsTest, RejectsDegenerateCounts) {
  EXPECT_FALSE(parse({"--shards", "0"}).error.empty());
  EXPECT_FALSE(parse({"--shards", "0", "--topology", "2x3"}).error.empty());
  EXPECT_FALSE(parse({"--servers", "0"}).error.empty());
  EXPECT_FALSE(parse({"--invocations", "-5"}).error.empty());
  EXPECT_FALSE(parse({"--rings", "0"}).error.empty());
  EXPECT_FALSE(parse({"--shards", "2", "--style", "passive"}).error.empty());
  EXPECT_FALSE(parse({"--style", "passive", "--shards", "2", "--kv"}).error.empty());
  EXPECT_EQ(parse({"--servers", "-1"}).error, "usage");  // no wrap to 2^64 - 1
  EXPECT_EQ(parse({"--shards", "-1"}).error, "usage");
  EXPECT_EQ(parse({"--rings", "2x"}).error, "usage");
  EXPECT_TRUE(parse({"--invocations", "0"}).error.empty());
  EXPECT_TRUE(parse({"--shards", "2", "--style", "semiactive"}).error.empty());
  EXPECT_TRUE(parse({"--rings", "1", "--servers", "1", "--shards", "1"}).error.empty());
}

// Every ring of a multi-ring run takes the clock and checkpoint flags.
TEST(ScenarioArgsTest, ClockAndCheckpointFlagsApplyToEveryRing) {
  for (const char* flag : {"--clock-offset", "--clock-drift", "--mean-delay", "--reference-gain",
                           "--checkpoint-every"}) {
    EXPECT_TRUE(parse({"--rings", "2", flag, "5"}).error.empty()) << flag;
    EXPECT_TRUE(parse({flag, "5", "--topology", "4x3"}).error.empty()) << flag;
  }
  EXPECT_TRUE(parse({"--rings", "2", "--drift", "mean"}).error.empty());
  EXPECT_TRUE(parse({"--topology", "4x3", "--drift", "reference"}).error.empty());

  auto digest = [](std::vector<const char*> argv) {
    const ScenarioArgs a = parse(std::move(argv));
    EXPECT_TRUE(a.error.empty()) << a.error;
    const ScenarioResult r = run_scenario(a.spec);
    EXPECT_TRUE(r.ok()) << r.report;
    return r.export_digest;
  };
  EXPECT_NE(digest({"--topology", "2x3", "--kv", "--invocations", "100", "--clock-offset", "0"}),
            digest({"--topology", "2x3", "--kv", "--invocations", "100"}));
}

TEST(ScenarioArgsTest, ChaosNeedsKvOnOneRingWithoutAFaultSchedule) {
  const ScenarioArgs a = parse({"--kv", "--chaos", "12", "--seed", "300-302"});
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.spec.chaos, 12u);
  EXPECT_FALSE(parse({"--chaos", "12"}).error.empty());
  EXPECT_FALSE(parse({"--kv", "--chaos", "12", "--rings", "2"}).error.empty());
  EXPECT_FALSE(parse({"--kv", "--chaos", "12", "--fault", "crash:0@1ms"}).error.empty());
  EXPECT_FALSE(parse({"--kv", "--fault", "heal@ev3", "--chaos", "12"}).error.empty());
  EXPECT_EQ(parse({"--kv", "--chaos"}).error, "usage");
}

// Every kind and both triggers parse, and print back to the same fault.
TEST(FaultGrammarTest, EveryKindAndTriggerRoundTrips) {
  using K = FaultEvent::Kind;
  using T = FaultEvent::Trigger;
  const std::pair<const char*, FaultEvent> cases[] = {
      {"crash:2@100ms", {K::kCrash, 2, 100'000}},
      {"recover:2@1.5s", {K::kRecover, 2, 1'500'000}},
      {"partition:1@250", {K::kPartition, 1, 250}},
      {"heal@250us", {K::kHeal, 0, 250}},
      {"step:1+30s@220ms", {K::kStep, 1, 220'000, T::kTime, 30'000'000}},
      {"step:0-5ms@ev7", {K::kStep, 0, 7, T::kEvent, -5'000}},
      {"crash:0@ev4200", {K::kCrash, 0, 4200, T::kEvent}},
      {"heal@ev0", {K::kHeal, 0, 0, T::kEvent}},
  };
  for (const auto& [text, want] : cases) {
    const std::optional<FaultEvent> f = parse_fault(text);
    ASSERT_TRUE(f.has_value()) << text;
    EXPECT_EQ(*f, want) << text;
    EXPECT_EQ(parse_fault(to_string(*f)), f) << text << " -> " << to_string(*f);
  }
  EXPECT_EQ(to_string(*parse_fault("recover:2@1.5s")), "recover:2@1500ms");
  const ScenarioArgs a = parse({"--fault", "crash:2@100ms", "--fault", "heal@ev3"});
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.spec.faults, (std::vector<FaultEvent>{*parse_fault("crash:2@100ms"),
                                                   *parse_fault("heal@ev3")}));
}

TEST(FaultGrammarTest, MalformedOrImpossibleFaultsAreUsageErrors) {
  for (const char* bad : {"crash:1", "crash:1@ev", "step:1@1ms", "crash@1ms", "heal:1@1ms",
                          "crash:x@1ms", "crash:1@1h", "crash:1@-5ms", "melt:1@1ms",
                          "crash:-1@1ms"}) {
    EXPECT_FALSE(parse_fault(bad).has_value()) << bad;
    EXPECT_EQ(parse({"--fault", bad}).error, "usage") << bad;
  }
  EXPECT_FALSE(parse({"--fault", "crash:3@1ms"}).error.empty());
  EXPECT_TRUE(parse({"--fault", "crash:2@1ms"}).error.empty());
  EXPECT_FALSE(parse({"--rings", "2", "--fault", "crash:1@ev5"}).error.empty());
  EXPECT_TRUE(parse({"--rings", "2", "--fault", "crash:1@5ms"}).error.empty());
  EXPECT_FALSE(parse({"--kv", "--chaos", "12", "--fault", "step:0+1s@1ms"}).error.empty());
}

// The report's header names every fault in `--fault` form, so it replays.
TEST(FaultGrammarTest, ReportHeaderListsTheFaults) {
  const ScenarioArgs a =
      parse({"--invocations", "10", "--fault", "crash:1@100ms", "--fault", "recover:1@ev50"});
  ASSERT_TRUE(a.error.empty()) << a.error;
  const ScenarioResult r = run_scenario(a.spec);
  EXPECT_NE(r.report.find("seed=1 loss=0.000 --fault crash:1@100ms --fault recover:1@ev50\n"),
            std::string::npos)
      << r.report;
}

// Single-ring KV runs compared every live replica against server 0, even
// after server 0 had crashed, and so reported divergence that was not there.
TEST(ScenarioRegressionTest, KvStaysConsistentWhenServerZeroCrashes) {
  for (const std::uint64_t seed : {1u, 3u, 7u, 42u}) {
    ScenarioSpec spec;
    spec.kv = true;
    spec.invocations = 200;
    spec.seed = seed;
    spec.faults = {{FaultEvent::Kind::kCrash, 0, 100'000}};
    const ScenarioResult r = run_scenario(spec);
    EXPECT_TRUE(r.consistent) << "seed " << seed << "\n" << r.report;
    EXPECT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_FALSE(r.all_alive);
  }
}

// A passive primary that crashed and rejoined became primary again with its
// periodic-checkpoint counter back at 0, so its checkpoints reused seqs the
// interim primary had sent; the backups dropped them as duplicates and the
// oracle aborted on the payload divergence.
TEST(ScenarioRegressionTest, RejoinedPassivePrimaryDoesNotReuseCheckpointSeqs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u}) {
    ScenarioSpec spec;
    spec.style = ccs::ReplicationStyle::kPassive;
    spec.checkpoint_every = 5;
    spec.invocations = 1000;
    spec.seed = seed;
    spec.faults = {{FaultEvent::Kind::kCrash, 0, 200'000},
                   {FaultEvent::Kind::kRecover, 0, 800'000}};
    const ScenarioResult r = run_scenario(spec);
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << r.report;
    EXPECT_EQ(r.replies, 1000u) << "seed " << seed;
    EXPECT_TRUE(r.all_alive);
  }
}

// The KV app expired leases from a poll thread, whose CCS round made its
// readings agree but applied each expiry between different requests at
// different replicas; PUT/DEL then read the clock at one replica and not at
// another.  Ring 4 of this run ended inconsistent and the oracle was silent.
TEST(ScenarioRegressionTest, ShardedKvLeaseExpiryKeepsReplicasConsistent) {
  const ScenarioArgs a =
      parse({"--topology", "16x3", "--kv", "--invocations", "1000", "--seed", "39"});
  ASSERT_TRUE(a.error.empty()) << a.error;
  const ScenarioResult r = run_scenario(a.spec);
  EXPECT_TRUE(r.consistent) << r.report;
  EXPECT_TRUE(r.ok()) << r.report;
  EXPECT_EQ(r.replies, 16'000u);
}

// The same poll thread in a passive KV group: a restarted replica's poll
// rounds diverged from the group's on the thread's CCS stream, and the
// oracle aborted on the payload divergence.
TEST(ScenarioRegressionTest, PassiveKvRejoinKeepsOneClockStream) {
  for (const char* seed : {"2", "3", "4", "11"}) {
    const ScenarioArgs a =
        parse({"--style", "passive", "--kv", "--think", "50", "--fault", "crash:0@300ms",
               "--fault", "recover:0@400ms", "--invocations", "800", "--seed", seed});
    ASSERT_TRUE(a.error.empty()) << a.error;
    const ScenarioResult r = run_scenario(a.spec);
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << r.report;
    EXPECT_EQ(r.replies, 800u) << "seed " << seed;
  }
}

// A fault timed after the workload's last reply used to be dropped: the
// drain stopped 2 s after that reply, so replica 1 never came back.
TEST(LateFaultTest, DrainRunsUntilTheLastFaultHasFired) {
  const ScenarioArgs a = parse({"--invocations", "10", "--fault", "crash:1@100ms", "--fault",
                                "recover:1@5s"});
  ASSERT_TRUE(a.error.empty()) << a.error;
  const ScenarioResult r = run_scenario(a.spec);
  EXPECT_TRUE(r.all_alive) << r.report;
  EXPECT_EQ(r.unrecovered, 0u) << r.report;
  EXPECT_TRUE(r.ok()) << r.report;
}

}  // namespace
}  // namespace cts::app
