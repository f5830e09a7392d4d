// Tests for sharded (multi-threaded) replicas: each shard is a logical
// thread with its own CCS handler stream, requests route deterministically
// by key, shards process concurrently, and the GET_STATE barrier brings
// all shards to quiescence for state transfer (paper Sections 2 and 3.2).
#include <gtest/gtest.h>

#include <stdexcept>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"

namespace cts::app {
namespace {

struct ShardedKv {
  Testbed tb;

  explicit ShardedKv(std::uint32_t shards, std::size_t servers = 3, std::uint64_t seed = 1)
      : tb(make_cfg(shards, servers, seed)) {
    tb.start();
  }

  static TestbedConfig make_cfg(std::uint32_t shards, std::size_t servers, std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.servers = servers;
    cfg.seed = seed;
    cfg.factory = kv_store_factory();
    cfg.shards = shards;
    cfg.shard_fn = kv_shard_of;
    return cfg;
  }

  KvReply call(Bytes request, Micros budget = 30'000'000) {
    const Bytes r = call_and_wait(tb, std::move(request), budget);
    return r.empty() ? KvReply{} : KvReply::parse(r);
  }

  KvStoreApp& shard_app(std::uint32_t server, std::uint32_t shard) {
    return static_cast<KvStoreApp&>(tb.server(server).app(shard));
  }

  void expect_all_shards_identical() {
    tb.sim().run_for(2'000'000);
    for (std::uint32_t s = 1; s < tb.server_count(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive()) continue;
      for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
        EXPECT_EQ(shard_app(s, sh).state_digest(), shard_app(0, sh).state_digest())
            << "server " << s << " shard " << sh << " diverged";
      }
    }
  }
};

TEST(ShardedTest, FourShardsServeDisjointKeys) {
  ShardedKv kv(4);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(kv.call(kv_put("key" + std::to_string(i), "v" + std::to_string(i))).status,
              KvStatus::kOk);
  }
  // Keys spread across shards; every shard holds something.
  std::size_t total = 0;
  int populated = 0;
  for (std::uint32_t sh = 0; sh < 4; ++sh) {
    total += kv.shard_app(0, sh).key_count();
    populated += kv.shard_app(0, sh).key_count() > 0;
  }
  EXPECT_EQ(total, 40u);
  EXPECT_GE(populated, 3);  // 40 hashed keys essentially never land in <3 of 4 shards
  kv.expect_all_shards_identical();
}

TEST(ShardedTest, SameKeyAlwaysSameShard) {
  ShardedKv kv(4);
  kv.call(kv_put("stable-key", "v1"));
  kv.call(kv_put("stable-key", "v2"));
  kv.call(kv_put("stable-key", "v3"));
  const KvReply g = kv.call(kv_get("stable-key"));
  EXPECT_EQ(g.version, 3u);  // all three writes hit the same shard state
  EXPECT_EQ(g.value, "v3");
}

TEST(ShardedTest, LeasesWorkPerShardWithDistinctClockThreads) {
  ShardedKv kv(4);
  // Leases on several keys (distinct shards, distinct CCS handler streams).
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(kv.call(kv_acquire("lock" + std::to_string(i), 1, 20'000)).status, KvStatus::kOk);
  }
  kv.tb.sim().run_for(300'000);
  // Each shard expires its leases at its next clock reading: one acquire
  // per shard, on a key of that shard.
  std::set<std::uint32_t> swept;
  for (int i = 0; swept.size() < 4 && i < 1000; ++i) {
    const std::string k = "probe" + std::to_string(i);
    gcs::Message m;
    m.payload = kv_acquire(k, 2, 10'000'000);
    if (!swept.insert(kv_shard_of(m) % 4).second) continue;
    ASSERT_EQ(kv.call(kv_acquire(k, 2, 10'000'000)).status, KvStatus::kOk);
  }
  ASSERT_EQ(swept.size(), 4u);
  // Every lease expired, identically at all replicas and shards.
  for (std::uint32_t s = 0; s < 3; ++s) {
    std::uint64_t expired = 0;
    for (std::uint32_t sh = 0; sh < 4; ++sh) {
      expired += kv.shard_app(s, sh).leases_expired();
      EXPECT_EQ(kv.shard_app(s, sh).leases_expired(), kv.shard_app(0, sh).leases_expired())
          << "server " << s << " shard " << sh;
    }
    EXPECT_EQ(expired, 8u) << "server " << s;
  }
  kv.expect_all_shards_identical();
}

TEST(ShardedTest, ShardsProcessConcurrently) {
  // One slow (lease => CCS round) op per shard, issued back-to-back: with
  // concurrent shards the total time is far below 4x one op.
  ShardedKv kv(4);
  // Find 4 keys that land in 4 distinct shards.
  std::vector<std::string> keys;
  std::set<std::uint32_t> used;
  for (int i = 0; keys.size() < 4 && i < 1000; ++i) {
    const std::string k = "probe" + std::to_string(i);
    gcs::Message m;
    m.payload = kv_acquire(k, 1, 1000);
    const auto sh = kv_shard_of(m) % 4;
    if (used.insert(sh).second) keys.push_back(k);
  }
  ASSERT_EQ(keys.size(), 4u);

  // Measure the instant the last reply arrives (recorded inside the
  // callback), not the polling-loop position: run_until() pauses on 10ms
  // boundaries, which would quantize both measurements to the same window.
  int done = 0;
  Micros last_reply = 0;
  const Micros t0 = kv.tb.sim().now();
  for (const auto& k : keys) {
    kv.tb.client().invoke(kv_acquire(k, 2, 1'000'000), [&](const Bytes&) {
      ++done;
      last_reply = kv.tb.sim().now();
    });
  }
  while (done < 4) kv.tb.sim().run_until(kv.tb.sim().now() + 10'000);
  const Micros elapsed_concurrent = last_reply - t0;

  // Baseline: the same four ops on a single-sharded deployment.
  ShardedKv kv1(1, 3, 2);
  int done1 = 0;
  Micros last_reply1 = 0;
  const Micros t1 = kv1.tb.sim().now();
  for (const auto& k : keys) {
    kv1.tb.client().invoke(kv_acquire(k, 2, 1'000'000), [&](const Bytes&) {
      ++done1;
      last_reply1 = kv1.tb.sim().now();
    });
  }
  while (done1 < 4) kv1.tb.sim().run_until(kv1.tb.sim().now() + 10'000);
  const Micros elapsed_serial = last_reply1 - t1;

  EXPECT_LT(elapsed_concurrent, elapsed_serial);
}

TEST(ShardedTest, RecoveryBarrierBringsAllShardsToQuiescence) {
  ShardedKv kv(4);
  for (int i = 0; i < 30; ++i) {
    kv.call(kv_put("key" + std::to_string(i), "v"));
  }
  kv.call(kv_acquire("key3", 7, 60'000'000));

  kv.tb.crash_server(2);
  kv.call(kv_put("post-crash", "x"));

  bool recovered = false;
  kv.tb.restart_server(2, [&] { recovered = true; });
  const Micros deadline = kv.tb.sim().now() + 300'000'000;
  while (!recovered && kv.tb.sim().now() < deadline) {
    kv.tb.sim().run_until(kv.tb.sim().now() + 10'000);
  }
  ASSERT_TRUE(recovered);

  kv.call(kv_put("post-recovery", "y"));
  kv.expect_all_shards_identical();
  // The still-live lease is enforced at the recovered replica too.
  EXPECT_EQ(kv.call(kv_put("key3", "intrude", 1)).status, KvStatus::kLeaseHeld);
}

TEST(ShardedTest, MixedShardedWorkloadNeverDiverges) {
  ShardedKv kv(3, 3, 5);
  Rng rng(44);
  for (int i = 0; i < 80; ++i) {
    const std::string key = "k" + std::to_string(rng.below(12));
    switch (rng.below(4)) {
      case 0:
        kv.call(kv_put(key, "v" + std::to_string(i), rng.below(3)));
        break;
      case 1:
        kv.call(kv_get(key));
        break;
      case 2:
        kv.call(kv_acquire(key, 1 + rng.below(3), 1'000 + (Micros)rng.below(30'000)));
        break;
      case 3:
        kv.call(kv_release(key, 1 + rng.below(3)));
        break;
    }
  }
  kv.expect_all_shards_identical();
}

TEST(ShardedTest, SemiActiveShardedWorks) {
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.style = replication::ReplicationStyle::kSemiActive;
  cfg.factory = kv_store_factory();
  cfg.shards = 2;
  cfg.shard_fn = kv_shard_of;
  Testbed tb(cfg);
  tb.start();
  KvReply out;
  bool done = false;
  tb.client().invoke(kv_acquire("lock", 1, 50'000), [&](const Bytes& r) {
    out = KvReply::parse(r);
    done = true;
  });
  while (!done) tb.sim().run_until(tb.sim().now() + 10'000);
  EXPECT_EQ(out.status, KvStatus::kOk);
  tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 1; s < 3; ++s) {
    for (std::uint32_t sh = 0; sh < 2; ++sh) {
      EXPECT_EQ(tb.server(s).app(sh).state_digest(), tb.server(0).app(sh).state_digest());
    }
  }
}

// ReplicaManager's preconditions hold in every build type: zero shards and
// sharded passive replication throw instead of running (or, with the
// assertions compiled out, crashing).
TEST(ShardedTest, ManagerRejectsZeroShardsAndShardedPassive) {
  TestbedConfig zero;
  zero.shards = 0;
  EXPECT_THROW(Testbed{zero}, std::invalid_argument);
  TestbedConfig passive;
  passive.style = replication::ReplicationStyle::kPassive;
  passive.shards = 2;
  passive.factory = kv_store_factory();
  passive.shard_fn = kv_shard_of;
  EXPECT_THROW(Testbed{passive}, std::invalid_argument);
}

}  // namespace
}  // namespace cts::app
