// Tests for stable storage and total-failure (cold-start) recovery — the
// extension beyond the paper's "at least one replica survives" assumption.
#include <gtest/gtest.h>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"
#include "storage/stable_store.hpp"

namespace cts::app {
namespace {

sim::Task drive(Testbed& tb, int n, std::vector<Micros>& stamps, bool* done = nullptr) {
  for (int i = 0; i < n; ++i) {
    co_await tb.sim().delay(1'000);
    const Bytes r = co_await tb.client().call(make_get_time_request());
    BytesReader rd(r);
    stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
  }
  if (done) *done = true;
}

TestbedConfig durable_cfg(std::uint64_t seed = 1) {
  TestbedConfig cfg;
  cfg.with_stable_storage = true;
  cfg.persist_every = 5;
  cfg.seed = seed;
  return cfg;
}

// --- StableStore unit tests -----------------------------------------------------

TEST(StableStoreTest, WriteThenReadBack) {
  sim::Simulator sim;
  storage::StableStore store(sim, {}, 1);
  EXPECT_FALSE(store.read("k").has_value());
  bool synced = false;
  store.write("k", Bytes{1, 2, 3}, [&] { synced = true; });
  EXPECT_FALSE(synced);  // fsync takes time
  sim.run();
  EXPECT_TRUE(synced);
  ASSERT_TRUE(store.read("k").has_value());
  EXPECT_EQ(*store.read("k"), (Bytes{1, 2, 3}));
}

TEST(StableStoreTest, OverwriteReplacesValue) {
  sim::Simulator sim;
  storage::StableStore store(sim, {}, 1);
  store.write("k", Bytes{1});
  store.write("k", Bytes{2});
  sim.run();
  EXPECT_EQ(*store.read("k"), Bytes{2});
  EXPECT_EQ(store.writes(), 2u);
}

TEST(StableStoreTest, EraseRemovesKey) {
  sim::Simulator sim;
  storage::StableStore store(sim, {}, 1);
  store.write("k", Bytes{1});
  store.erase("k");
  EXPECT_FALSE(store.read("k").has_value());
}

TEST(StableStoreTest, FsyncLatencyIsWithinConfiguredBounds) {
  sim::Simulator sim;
  storage::StableStore::Config cfg;
  cfg.min_write_us = 100;
  cfg.max_write_us = 200;
  storage::StableStore store(sim, cfg, 7);
  for (int i = 0; i < 20; ++i) {
    const Micros t0 = sim.now();
    Micros synced_at = -1;
    store.write("k", Bytes{1}, [&] { synced_at = sim.now(); });
    sim.run();
    ASSERT_GE(synced_at, t0 + 100);
    ASSERT_LE(synced_at, t0 + 200);
  }
}

// --- Checkpoint persistence ---------------------------------------------------------

TEST(ColdStartTest, ReplicasPersistCheckpointsWhileRunning) {
  Testbed tb(durable_cfg());
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Micros> stamps;
  bool done = false;
  drive(tb, 30, stamps, &done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  tb.sim().run_for(5'000'000);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_GT(tb.server(s).stats().checkpoints_persisted, 0u) << "replica " << s;
    EXPECT_TRUE(tb.store_of(s).read("replica-checkpoint").has_value());
  }
}

// --- Total failure ---------------------------------------------------------------------

TEST(ColdStartTest, GroupClockMonotoneAcrossTotalFailure) {
  Testbed tb(durable_cfg(3));
  tb.start();
  FailStopCheck fail_stop{tb};

  std::vector<Micros> before;
  bool done1 = false;
  drive(tb, 25, before, &done1);
  ASSERT_TRUE(run_until(tb, [&] { return done1; }, 60'000'000));
  tb.sim().run_for(5'000'000);  // let the persists land

  // TOTAL failure: every replica dies.
  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(5'000'000);

  // Cold restart all three from their local disks.
  for (std::uint32_t s = 0; s < 3; ++s) tb.cold_restart_server(s);
  tb.sim().run_for(2'000'000);

  std::vector<Micros> after;
  bool done2 = false;
  drive(tb, 25, after, &done2);
  ASSERT_TRUE(run_until(tb, [&] { return done2; }, 120'000'000));

  // Monotone across the outage: the persisted CTS state carries the last
  // group clock, which floors everything after the cold start.
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(after.empty());
  EXPECT_GT(after.front(), before.back())
      << "group clock rolled back across a total failure";
  for (std::size_t i = 1; i < after.size(); ++i) EXPECT_GT(after[i], after[i - 1]);
}

TEST(ColdStartTest, StateSurvivesTotalFailure) {
  Testbed tb(durable_cfg(4));
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Micros> stamps;
  bool done = false;
  drive(tb, 20, stamps, &done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  tb.sim().run_for(5'000'000);
  const auto counter_before = tb.server_app(0).counter();
  ASSERT_GT(counter_before, 0u);

  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 0; s < 3; ++s) tb.cold_restart_server(s);
  tb.sim().run_for(5'000'000);

  // Every replica recovered (at least) the persisted prefix, and they all
  // converged to the same state via the cold-start announcements.
  const auto h0 = tb.server_app(0).time_history();
  EXPECT_GE(tb.server_app(0).counter(), counter_before - tb.config().persist_every);
  for (std::uint32_t s = 1; s < 3; ++s) {
    EXPECT_EQ(tb.server_app(s).time_history(), h0) << "replica " << s;
  }
  // And the group continues to serve.
  std::vector<Micros> more;
  bool done2 = false;
  drive(tb, 10, more, &done2);
  ASSERT_TRUE(run_until(tb, [&] { return done2; }, 60'000'000));
}

TEST(ColdStartTest, StalestDiskCatchesUpFromFreshest) {
  Testbed tb(durable_cfg(5));
  tb.start();
  FailStopCheck fail_stop{tb};
  std::vector<Micros> stamps;
  bool done = false;
  drive(tb, 20, stamps, &done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  tb.sim().run_for(5'000'000);

  // Make replica 2's disk artificially stale (e.g. its last persists were
  // lost): wipe it entirely.
  tb.store_of(2).erase("replica-checkpoint");

  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 0; s < 3; ++s) tb.cold_restart_server(s);
  tb.sim().run_for(5'000'000);

  // Replica 2 adopted the freshest announcement despite its empty disk.
  EXPECT_EQ(tb.server_app(2).time_history(), tb.server_app(0).time_history());
  EXPECT_GT(tb.server_app(2).counter(), 0u);
}

TEST(ColdStartTest, DurableKvStoreSurvivesTotalFailureWithLeases) {
  // Stable storage + the lease KV store: writes, a long-lived lease, total
  // failure, cold start — the data, the lease, and its group-time expiry
  // all survive, and the lease is still enforced afterwards.
  TestbedConfig cfg;
  cfg.with_stable_storage = true;
  cfg.persist_every = 3;
  cfg.seed = 7;
  cfg.factory = kv_store_factory();
  Testbed tb(cfg);
  tb.start();
  FailStopCheck fail_stop{tb};

  auto call = [&](Bytes req) {
    KvReply out;
    bool done = false;
    tb.client().invoke(std::move(req), [&](const Bytes& r) {
      out = KvReply::parse(r);
      done = true;
    });
    const Micros deadline = tb.sim().now() + 60'000'000;
    while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 10'000);
    EXPECT_TRUE(done);
    return out;
  };

  ASSERT_EQ(call(kv_put("config", "v1")).status, KvStatus::kOk);
  ASSERT_EQ(call(kv_acquire("config", /*owner=*/9, /*ttl=*/120'000'000)).status, KvStatus::kOk);
  ASSERT_EQ(call(kv_put("other", "data")).status, KvStatus::kOk);
  ASSERT_EQ(call(kv_put("third", "entry")).status, KvStatus::kOk);  // triggers persist
  tb.sim().run_for(5'000'000);

  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 0; s < 3; ++s) tb.cold_restart_server(s);
  tb.sim().run_for(5'000'000);

  // Data survived; the lease is STILL enforced after the cold start.
  EXPECT_EQ(call(kv_get("config")).value, "v1");
  EXPECT_EQ(call(kv_put("config", "intruder", /*owner=*/1)).status, KvStatus::kLeaseHeld);
  EXPECT_EQ(call(kv_put("config", "v2", /*owner=*/9)).status, KvStatus::kOk);

  tb.sim().run_for(2'000'000);
  auto digest = [&](std::uint32_t s) { return tb.server(s).app().state_digest(); };
  EXPECT_EQ(digest(1), digest(0));
  EXPECT_EQ(digest(2), digest(0));
}

TEST(ColdStartTest, ColdStartWithEmptyDisksStillForms) {
  // No traffic before the failure: all disks empty; the group cold-starts
  // from scratch and works normally.
  Testbed tb(durable_cfg(6));
  tb.start();
  FailStopCheck fail_stop{tb};
  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 0; s < 3; ++s) tb.cold_restart_server(s);
  tb.sim().run_for(2'000'000);
  std::vector<Micros> stamps;
  bool done = false;
  drive(tb, 10, stamps, &done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 60'000'000));
  for (std::size_t i = 1; i < stamps.size(); ++i) EXPECT_GT(stamps[i], stamps[i - 1]);
}

}  // namespace
}  // namespace cts::app
