// Tests for the replicated key-value store with group-clock leases.
#include <gtest/gtest.h>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"

namespace cts::app {
namespace {

struct KvBed {
  Testbed tb;

  explicit KvBed(std::size_t servers = 3, std::uint64_t seed = 1,
                 replication::ReplicationStyle style = replication::ReplicationStyle::kActive)
      : tb(make_cfg(servers, seed, style)) {
    tb.start();
  }

  static TestbedConfig make_cfg(std::size_t servers, std::uint64_t seed,
                                replication::ReplicationStyle style) {
    TestbedConfig cfg;
    cfg.servers = servers;
    cfg.seed = seed;
    cfg.style = style;
    if (style == replication::ReplicationStyle::kPassive) cfg.checkpoint_every = 4;
    cfg.factory = kv_store_factory();
    return cfg;
  }

  /// Synchronous-looking request helper: runs the sim until the reply.
  KvReply call(Bytes request, Micros budget = 30'000'000) {
    const Bytes r = call_and_wait(tb, std::move(request), budget);
    return r.empty() ? KvReply{} : KvReply::parse(r);
  }

  KvStoreApp& app(std::uint32_t s) { return static_cast<KvStoreApp&>(tb.server(s).app()); }

  void expect_replicas_identical() {
    tb.sim().run_for(2'000'000);
    for (std::uint32_t s = 1; s < tb.server_count(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive()) continue;
      if (tb.config().style == replication::ReplicationStyle::kPassive &&
          !tb.server(s).is_primary()) {
        continue;
      }
      EXPECT_EQ(app(s).state_digest(), app(0).state_digest()) << "replica " << s << " diverged";
    }
  }
};

TEST(KvStoreTest, PutGetRoundTrip) {
  KvBed kv;
  EXPECT_EQ(kv.call(kv_put("color", "blue")).status, KvStatus::kOk);
  const KvReply g = kv.call(kv_get("color"));
  EXPECT_EQ(g.status, KvStatus::kOk);
  EXPECT_EQ(g.value, "blue");
  EXPECT_EQ(g.version, 1u);
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, GetMissingKeyReturnsNotFound) {
  KvBed kv;
  EXPECT_EQ(kv.call(kv_get("ghost")).status, KvStatus::kNotFound);
}

TEST(KvStoreTest, VersionsIncrementPerWrite) {
  KvBed kv;
  kv.call(kv_put("k", "v1"));
  kv.call(kv_put("k", "v2"));
  const KvReply r = kv.call(kv_put("k", "v3"));
  EXPECT_EQ(r.version, 3u);
  EXPECT_EQ(kv.call(kv_get("k")).value, "v3");
}

TEST(KvStoreTest, DeleteRemovesKey) {
  KvBed kv;
  kv.call(kv_put("k", "v"));
  EXPECT_EQ(kv.call(kv_del("k")).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_get("k")).status, KvStatus::kNotFound);
  EXPECT_EQ(kv.call(kv_del("k")).status, KvStatus::kNotFound);
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, LeaseGrantsExclusiveWriteAccess) {
  KvBed kv;
  kv.call(kv_put("config", "initial"));
  const KvReply lease = kv.call(kv_acquire("config", /*owner=*/42, /*ttl=*/1'000'000));
  ASSERT_EQ(lease.status, KvStatus::kOk);
  EXPECT_GT(lease.lease_expiry, 0);

  // Another writer is blocked; the owner is not.
  EXPECT_EQ(kv.call(kv_put("config", "intruder", /*owner=*/7)).status, KvStatus::kLeaseHeld);
  EXPECT_EQ(kv.call(kv_put("config", "update", /*owner=*/42)).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_get("config")).value, "update");
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, AcquireDeniedWhileLeaseHeld) {
  KvBed kv;
  ASSERT_EQ(kv.call(kv_acquire("lock", 1, 1'000'000)).status, KvStatus::kOk);
  const KvReply denied = kv.call(kv_acquire("lock", 2, 1'000'000));
  EXPECT_EQ(denied.status, KvStatus::kLeaseDenied);
}

TEST(KvStoreTest, SameOwnerCanRenewLease) {
  KvBed kv;
  const KvReply first = kv.call(kv_acquire("lock", 9, 500'000));
  ASSERT_EQ(first.status, KvStatus::kOk);
  const KvReply renewed = kv.call(kv_acquire("lock", 9, 500'000));
  EXPECT_EQ(renewed.status, KvStatus::kOk);
  EXPECT_GE(renewed.lease_expiry, first.lease_expiry);
}

TEST(KvStoreTest, ReleaseFreesTheLease) {
  KvBed kv;
  ASSERT_EQ(kv.call(kv_acquire("lock", 1, 10'000'000)).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_release("lock", 1)).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_acquire("lock", 2, 10'000)).status, KvStatus::kOk);
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, ReleaseByNonOwnerFails) {
  KvBed kv;
  ASSERT_EQ(kv.call(kv_acquire("lock", 1, 1'000'000)).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_release("lock", 2)).status, KvStatus::kLeaseDenied);
}

TEST(KvStoreTest, ExpiredLeaseCanBeTakenOver) {
  KvBed kv;
  ASSERT_EQ(kv.call(kv_acquire("lock", 1, /*ttl=*/20'000)).status, KvStatus::kOk);
  // Wait past the ttl in simulated time; the acquire's own clock reading
  // expires the old lease before it decides.
  kv.tb.sim().run_for(100'000);
  EXPECT_EQ(kv.call(kv_acquire("lock", 2, 1'000'000)).status, KvStatus::kOk);
  kv.expect_replicas_identical();
}

// Expiry is lazy: a deadline that has passed takes effect at the next
// request that reads the group clock, at the same stream position at every
// replica.
TEST(KvStoreTest, TimersExpireLeasesIdenticallyAtAllReplicas) {
  KvBed kv;
  kv.call(kv_acquire("a", 1, 15'000));
  kv.call(kv_acquire("b", 2, 25'000));
  kv.tb.sim().run_for(200'000);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(kv.app(s).leases_expired(), 0u) << "replica " << s << ": nothing read the clock";
  }
  ASSERT_EQ(kv.call(kv_acquire("c", 3, 10'000'000)).status, KvStatus::kOk);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(kv.app(s).leases_expired(), 2u) << "replica " << s;
  }
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, ReleasedLeaseTimerDoesNotFireLater) {
  KvBed kv;
  kv.call(kv_acquire("lock", 1, 30'000));
  kv.call(kv_release("lock", 1));
  kv.tb.sim().run_for(200'000);
  // A clock reading past the released lease's deadline expires nothing.
  ASSERT_EQ(kv.call(kv_acquire("other", 2, 10'000'000)).status, KvStatus::kOk);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(kv.app(s).leases_expired(), 0u) << "replica " << s;
  }
}

// GET and a PUT on an unleased key read no clock, so they expire nothing;
// the next request that does read it expires the lease before deciding.
TEST(KvStoreTest, RequestsWithoutAClockReadingDoNotExpireLeases) {
  KvBed kv;
  kv.call(kv_put("k", "v"));
  ASSERT_EQ(kv.call(kv_acquire("k", 1, 20'000)).status, KvStatus::kOk);
  kv.tb.sim().run_for(100'000);
  EXPECT_EQ(kv.call(kv_get("k")).status, KvStatus::kOk);
  EXPECT_EQ(kv.call(kv_put("unleased", "x")).status, KvStatus::kOk);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(kv.app(s).leases_expired(), 0u) << "replica " << s;
  }
  EXPECT_EQ(kv.call(kv_put("k", "w", /*owner=*/2)).status, KvStatus::kOk);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(kv.app(s).leases_expired(), 1u) << "replica " << s;
  }
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, MixedWorkloadKeepsReplicasIdentical) {
  KvBed kv;
  Rng rng(33);
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(rng.below(8));
    switch (rng.below(5)) {
      case 0:
        kv.call(kv_put(key, "v" + std::to_string(i), rng.below(3)));
        break;
      case 1:
        kv.call(kv_get(key));
        break;
      case 2:
        kv.call(kv_del(key, rng.below(3)));
        break;
      case 3:
        kv.call(kv_acquire(key, 1 + rng.below(3), 1'000 + (Micros)rng.below(50'000)));
        break;
      case 4:
        kv.call(kv_release(key, 1 + rng.below(3)));
        break;
    }
  }
  kv.expect_replicas_identical();
  const KvReply st = kv.call(kv_stats());
  EXPECT_EQ(st.state_digest, kv.app(0).state_digest());
}

TEST(KvStoreTest, StateSurvivesCrashAndRecovery) {
  KvBed kv;
  kv.call(kv_put("durable", "yes"));
  kv.call(kv_acquire("durable", 5, 60'000'000));
  kv.tb.crash_server(2);
  kv.call(kv_put("while-down", "written"));
  bool recovered = false;
  kv.tb.restart_server(2, [&] { recovered = true; });
  const Micros deadline = kv.tb.sim().now() + 300'000'000;
  while (!recovered && kv.tb.sim().now() < deadline) {
    kv.tb.sim().run_until(kv.tb.sim().now() + 10'000);
  }
  ASSERT_TRUE(recovered);
  kv.call(kv_put("after", "recovery"));
  kv.expect_replicas_identical();
  // The recovered replica enforces the still-live lease too.
  EXPECT_EQ(kv.call(kv_put("durable", "no", /*owner=*/1)).status, KvStatus::kLeaseHeld);
}

TEST(KvStoreTest, SemiActiveStyleWorksToo) {
  KvBed kv(3, 2, replication::ReplicationStyle::kSemiActive);
  kv.call(kv_put("x", "1"));
  ASSERT_EQ(kv.call(kv_acquire("x", 1, 50'000)).status, KvStatus::kOk);
  kv.tb.sim().run_for(200'000);
  EXPECT_EQ(kv.call(kv_acquire("x", 2, 50'000)).status, KvStatus::kOk);
  kv.expect_replicas_identical();
}

TEST(KvStoreTest, LeaseDecisionsConsistentAcrossFailover) {
  KvBed kv(3, 3, replication::ReplicationStyle::kSemiActive);
  ASSERT_EQ(kv.call(kv_acquire("ha-lock", 1, 60'000'000)).status, KvStatus::kOk);
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (kv.tb.server(s).is_primary()) kv.tb.crash_server(s);
  }
  kv.tb.sim().run_for(2'000'000);
  // The new primary still refuses the competing acquire.
  EXPECT_EQ(kv.call(kv_acquire("ha-lock", 2, 1'000'000)).status, KvStatus::kLeaseDenied);
  // And honours the owner.
  EXPECT_EQ(kv.call(kv_put("ha-lock", "v", 1)).status, KvStatus::kOk);
}

TEST(KvStoreTest, BadRequestsAreRejectedDeterministically) {
  KvBed kv;
  EXPECT_EQ(kv.call(kv_acquire("k", /*owner=*/0, 1'000)).status, KvStatus::kBadRequest);
  EXPECT_EQ(kv.call(kv_acquire("k", 1, /*ttl=*/0)).status, KvStatus::kBadRequest);
  EXPECT_EQ(kv.call(Bytes{99}).status, KvStatus::kBadRequest);
  kv.expect_replicas_identical();
}

}  // namespace
}  // namespace cts::app
