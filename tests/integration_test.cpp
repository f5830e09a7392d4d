// Full-stack integration tests: client → ORB → replicated server →
// Consistent Time Service → Totem, on the simulated four-node testbed of
// paper Section 4.2.
#include <gtest/gtest.h>

#include "app/scenario.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"

namespace cts::app {
namespace {

using replication::ReplicationStyle;

TEST(IntegrationTest, ClientGetsRepliesFromActiveGroup) {
  Testbed tb({});
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 10, replies, 100);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 10; }, 30'000'000));
  for (const auto& r : replies) {
    BytesReader rd(r);
    const auto sec = rd.i64();
    const auto usec = rd.i64();
    EXPECT_GT(sec, 0);
    EXPECT_GE(usec, 0);
    EXPECT_LT(usec, 1'000'000);
  }
}

TEST(IntegrationTest, ReplyTimestampsStrictlyIncrease) {
  ScenarioSpec spec;
  spec.invocations = 50;
  spec.think_us = 100;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.replies, 50u);
  EXPECT_EQ(r.monotonicity_violations, 0u);
}

TEST(IntegrationTest, AllReplicasHoldIdenticalState) {
  // No faults, so every replica is live and compared: all three hold the
  // same 30-reading history.
  ScenarioSpec spec;
  spec.invocations = 30;
  spec.think_us = 100;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.replies, 30u);
  EXPECT_TRUE(r.consistent) << r.report;
  EXPECT_TRUE(r.all_alive);
}

TEST(IntegrationTest, WithoutCtsReplicasDivergeWithCtsTheyAgree) {
  // A control experiment: the same workload where the app reads the LOCAL
  // physical clock would diverge; with the CTS it cannot.  We demonstrate
  // the CTS side here (the divergence side lives in the baseline tests).
  TestbedConfig cfg;
  cfg.max_clock_offset_us = 400'000;  // wildly different hardware clocks
  Testbed tb(cfg);
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 20, replies, 100);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 20; }, 60'000'000));
  tb.sim().run_for(1'000'000);
  EXPECT_EQ(tb.server_app(0).time_history(), tb.server_app(1).time_history());
  EXPECT_EQ(tb.server_app(1).time_history(), tb.server_app(2).time_history());
}

TEST(IntegrationTest, BurstRequestRunsManyRoundsConsistently) {
  Testbed tb({});
  tb.start();
  Bytes reply;
  bool got = false;
  tb.client().invoke(make_burst_request(100), [&](const Bytes& r) {
    reply = r;
    got = true;
  });
  ASSERT_TRUE(run_until(tb, [&] { return got; }, 120'000'000));
  tb.sim().run_for(2'000'000);
  ASSERT_EQ(tb.server_app(0).time_history().size(), 100u);
  EXPECT_EQ(tb.server_app(0).time_history(), tb.server_app(1).time_history());
  EXPECT_EQ(tb.server_app(1).time_history(), tb.server_app(2).time_history());
  // The history must be strictly monotone: a group clock never rolls back.
  const auto& h = tb.server_app(0).time_history();
  for (std::size_t i = 1; i < h.size(); ++i) EXPECT_GT(h[i], h[i - 1]);
}

TEST(IntegrationTest, CcsTrafficIsSuppressedToAboutOnePerRound) {
  Testbed tb({});
  tb.start();
  Bytes reply;
  bool got = false;
  tb.client().invoke(make_burst_request(200), [&](const Bytes& r) {
    reply = r;
    got = true;
  });
  ASSERT_TRUE(run_until(tb, [&] { return got; }, 240'000'000));
  tb.sim().run_for(2'000'000);
  std::uint64_t wire = 0;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
  }
  // Paper Section 4.3: total CCS messages on the wire ≈ number of rounds
  // (1 + 9,977 + 22 for 10,000 rounds).  Allow slack for in-flight copies.
  EXPECT_GE(wire, 200u);
  EXPECT_LE(wire, 300u);
}

TEST(IntegrationTest, SemiActiveStyleAgreesToo) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kSemiActive;
  Testbed tb(cfg);
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 25, replies, 100);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 25; }, 60'000'000));
  tb.sim().run_for(1'000'000);
  EXPECT_EQ(tb.server_app(0).time_history(), tb.server_app(1).time_history());
  EXPECT_EQ(tb.server_app(1).time_history(), tb.server_app(2).time_history());
  // Only the primary sends CCS proposals in semi-active replication.
  std::uint64_t initiated_by_backups = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (!tb.server(s).is_primary()) {
      initiated_by_backups += tb.server(s).time_service().stats().sends_initiated;
    }
  }
  EXPECT_EQ(initiated_by_backups, 0u);
}

TEST(IntegrationTest, PassiveStylePrimaryProcessesBackupsLog) {
  TestbedConfig cfg;
  cfg.style = ReplicationStyle::kPassive;
  cfg.checkpoint_every = 5;
  Testbed tb(cfg);
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 20, replies, 100);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 20; }, 60'000'000));
  tb.sim().run_for(1'000'000);
  int primaries = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (tb.server(s).is_primary()) {
      ++primaries;
      EXPECT_EQ(tb.server(s).stats().requests_processed, 20u);
      EXPECT_GE(tb.server(s).stats().checkpoints_taken, 3u);
    } else {
      EXPECT_EQ(tb.server(s).stats().requests_processed, 0u);
      EXPECT_GT(tb.server(s).stats().requests_logged, 0u);
      EXPECT_GT(tb.server(s).stats().checkpoints_applied, 0u);
    }
  }
  EXPECT_EQ(primaries, 1);
}

TEST(IntegrationTest, ClientSeesNoDuplicateReplies) {
  Testbed tb({});
  tb.start();
  std::vector<Bytes> replies;
  drive_client(tb, 15, replies, 100);
  ASSERT_TRUE(run_until(tb, [&] { return replies.size() == 15; }, 60'000'000));
  EXPECT_EQ(tb.client().replies(), 15u);
  EXPECT_EQ(tb.client().invocations(), 15u);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  ScenarioSpec spec;
  spec.seed = 3;
  spec.invocations = 10;
  spec.think_us = 100;
  EXPECT_EQ(run_scenario(spec).export_digest, run_scenario(spec).export_digest);
}

// Sweep group sizes and styles: state must agree everywhere.
struct StackParam {
  std::size_t servers;
  ReplicationStyle style;
  std::uint64_t seed;
};

class FullStackProperty : public ::testing::TestWithParam<StackParam> {};

TEST_P(FullStackProperty, ReplicasNeverDiverge) {
  // The scenario engine checks strictly increasing reply timestamps and
  // identical state on every live replica (the primary, for passive).
  const auto p = GetParam();
  ScenarioSpec spec;
  spec.servers = p.servers;
  spec.style = p.style;
  spec.seed = p.seed;
  spec.checkpoint_every = 4;
  spec.invocations = 15;
  spec.think_us = 100;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.replies, 15u);
  EXPECT_TRUE(r.ok()) << r.report;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FullStackProperty,
    ::testing::Values(StackParam{2, ReplicationStyle::kActive, 1},
                      StackParam{3, ReplicationStyle::kActive, 2},
                      StackParam{5, ReplicationStyle::kActive, 3},
                      StackParam{7, ReplicationStyle::kActive, 4},
                      StackParam{2, ReplicationStyle::kSemiActive, 5},
                      StackParam{3, ReplicationStyle::kSemiActive, 6},
                      StackParam{5, ReplicationStyle::kSemiActive, 7},
                      StackParam{3, ReplicationStyle::kPassive, 8},
                      StackParam{4, ReplicationStyle::kPassive, 9}),
    [](const ::testing::TestParamInfo<StackParam>& param_info) {
      const char* style = param_info.param.style == ReplicationStyle::kActive ? "active"
                          : param_info.param.style == ReplicationStyle::kSemiActive
                              ? "semiactive"
                              : "passive";
      return std::string(style) + "_n" + std::to_string(param_info.param.servers) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace cts::app
