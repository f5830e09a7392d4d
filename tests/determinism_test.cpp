// Whole-stack determinism: identical seeds must reproduce identical
// executions — replies, replica state, wire statistics — even through
// fault schedules.  This property is what makes every other test in the
// repository meaningful (a flaky simulation cannot assert agreement), and
// it is the property a user relies on when replaying a failure from a
// seed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "app/kv_store.hpp"
#include "app/scenario.hpp"
#include "app/testbed.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

ScenarioSpec time_server_spec(std::uint64_t seed, ReplicationStyle style, bool with_faults) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.style = style;
  spec.invocations = 30;
  spec.think_us = 700;
  if (with_faults) {
    // Replica 2 crashes about a third of the way into the workload and
    // rejoins by state transfer eight requests later.
    spec.faults = {{FaultEvent::Kind::kCrash, 2, 212'000},
                   {FaultEvent::Kind::kRecover, 2, 221'000}};
  }
  return spec;
}

/// Run `spec` twice: both runs must pass every scenario check (including
/// the fail-stop tripwire: no crashed replica ever read its clock) and
/// agree on the report and the export digest.  Returns the first run.
ScenarioResult double_run(const ScenarioSpec& spec) {
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(spec);
  EXPECT_TRUE(a.ok()) << a.report;
  EXPECT_EQ(a.reads_after_failure, 0u);
  EXPECT_EQ(a.export_digest, b.export_digest);
  EXPECT_EQ(a.report, b.report);
  return a;
}

TEST(DeterminismTest, ActiveStyleBitIdenticalAcrossRuns) {
  EXPECT_EQ(double_run(time_server_spec(11, ReplicationStyle::kActive, false)).replies, 30u);
}

TEST(DeterminismTest, SemiActiveStyleBitIdenticalAcrossRuns) {
  double_run(time_server_spec(12, ReplicationStyle::kSemiActive, false));
}

TEST(DeterminismTest, PassiveStyleBitIdenticalAcrossRuns) {
  double_run(time_server_spec(13, ReplicationStyle::kPassive, false));
}

TEST(DeterminismTest, IdenticalEvenThroughCrashAndRecovery) {
  const ScenarioResult r = double_run(time_server_spec(14, ReplicationStyle::kActive, true));
  EXPECT_EQ(r.replies, 30u);
  EXPECT_TRUE(r.all_alive);
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentSchedules) {
  const ScenarioResult a = run_scenario(time_server_spec(15, ReplicationStyle::kActive, false));
  const ScenarioResult b = run_scenario(time_server_spec(16, ReplicationStyle::kActive, false));
  // Same workload, different jitter/clock draws: the runs must differ (if
  // they didn't, the "randomness" would not be exercising anything).
  EXPECT_NE(a.export_digest, b.export_digest);
}

TEST(DeterminismTest, PartitionAndHealScheduleIsSeedStable) {
  // Regression for the hash-map iteration-order hazard: partition() and
  // heal() rebuild component_of_, and broadcast() draws per-receiver
  // randomness while walking handlers_ — both must iterate in NodeId order
  // for the post-heal schedule to replay from the seed.  Server 2 is cut
  // off mid-run and healed 9 ms later.
  ScenarioSpec spec = time_server_spec(27, ReplicationStyle::kActive, false);
  spec.invocations = 24;
  spec.faults = {{FaultEvent::Kind::kPartition, 2, 210'361}, {FaultEvent::Kind::kHeal, 0, 219'454}};
  const ScenarioResult a = run_scenario(spec);
  const ScenarioResult b = run_scenario(spec);
  EXPECT_EQ(a.export_digest, b.export_digest);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.replies, 24u);
  EXPECT_EQ(a.reads_after_failure, 0u);
  // Not ok(): the healed replica missed three requests, is never brought
  // back by state transfer, and wins rounds that the client sees go
  // backwards (ROADMAP item 1).
}

TEST(DeterminismTest, ExportedArtifactsAreByteIdenticalAcrossRuns) {
  // The acceptance bar for the observability layer: two identical-seed runs
  // must export byte-identical metrics JSON and trace JSONL, so a run can
  // be diffed against a replay with plain cmp(1).
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  auto run = [&](const std::string& label) {
    ScenarioSpec spec;
    spec.seed = 31;
    spec.invocations = 12;
    spec.think_us = 900;
    spec.metrics_json = label + ".metrics.json";
    spec.trace_jsonl = label + ".trace.jsonl";
    EXPECT_TRUE(run_scenario(spec).ok());
    return std::make_pair(slurp(spec.metrics_json), slurp(spec.trace_jsonl));
  };
  const auto a = run("det_export_a");
  const auto b = run("det_export_b");
  ASSERT_FALSE(a.first.empty());
  ASSERT_FALSE(a.second.empty());
  EXPECT_EQ(a.first, b.first) << "metrics JSON differs between identical-seed runs";
  EXPECT_EQ(a.second, b.second) << "trace JSONL differs between identical-seed runs";
}

TEST(DeterminismTest, KvWorkloadIdenticalAcrossRuns) {
  // 25 requests in flight at once over 2 shards, so the shards' executions
  // interleave; every replica's per-shard state must match across runs.
  auto run = [](std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.factory = kv_store_factory();
    cfg.shards = 2;
    cfg.shard_fn = kv_shard_of;
    Testbed tb(cfg);
    tb.start();
    Rng rng(99);
    int done_count = 0;
    for (int i = 0; i < 25; ++i) {
      const std::string key = "k" + std::to_string(rng.below(6));
      Bytes req = (i % 3 == 0) ? kv_acquire(key, 1 + rng.below(2), 5'000)
                               : kv_put(key, "v" + std::to_string(i));
      tb.client().invoke(std::move(req), [&](const Bytes&) { ++done_count; });
    }
    const Micros deadline = tb.sim().now() + 120'000'000;
    while (done_count < 25 && tb.sim().now() < deadline) {
      tb.sim().run_until(tb.sim().now() + 100'000);
    }
    tb.sim().run_for(5'000'000);
    std::vector<std::uint64_t> digests;
    for (std::uint32_t s = 0; s < 3; ++s) {
      for (std::uint32_t sh = 0; sh < 2; ++sh) {
        digests.push_back(tb.server(s).app(sh).state_digest());
      }
    }
    return digests;
  };
  EXPECT_EQ(run(21), run(21));
}

}  // namespace
}  // namespace cts::app
