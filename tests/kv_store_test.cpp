// Tests for the replicated key-value store with group-clock leases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

// --- Restore in place ---------------------------------------------------------------

/// A KV checkpoint as plain fields, to forge snapshots a primary never sends.
struct RawSnapshot {
  struct Entry {
    std::string key;
    std::string value;
    std::uint64_t version = 0;
    std::uint64_t lease_owner = 0;
    Micros lease_expiry = 0;
    std::uint64_t lease_grant = 0;
  };
  std::uint64_t grant_counter = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t handoff_seq = 0;
  std::vector<Entry> entries;

  static RawSnapshot parse(const Bytes& b) {
    BytesReader r(b);
    RawSnapshot s;
    s.grant_counter = r.u64();
    s.leases_expired = r.u64();
    s.handoff_seq = r.u64();
    s.entries.resize(r.u32());
    for (Entry& e : s.entries) {
      e.key = r.str();
      e.value = r.str();
      e.version = r.u64();
      e.lease_owner = r.u64();
      e.lease_expiry = r.i64();
      e.lease_grant = r.u64();
    }
    return s;
  }

  /// What installing the entries one by one, in order, leaves: keys
  /// sorted, and a later duplicate replacing an earlier one.
  [[nodiscard]] RawSnapshot installed() const {
    std::map<std::string, Entry> by_key;
    for (const Entry& e : entries) by_key.insert_or_assign(e.key, e);
    RawSnapshot out = *this;
    out.entries.clear();
    for (auto& [k, e] : by_key) out.entries.push_back(e);
    return out;
  }

  [[nodiscard]] Bytes encode() const {
    BytesWriter w;
    w.u64(grant_counter);
    w.u64(leases_expired);
    w.u64(handoff_seq);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries) {
      w.str(e.key);
      w.str(e.value);
      w.u64(e.version);
      w.u64(e.lease_owner);
      w.i64(e.lease_expiry);
      w.u64(e.lease_grant);
    }
    return std::move(w).take();
  }
};

TEST(KvStoreTest, RestoreInPlaceMatchesFreshRestore) {
  // A seeded PUT/DEL/ACQUIRE/RELEASE workload with short leases, so leases
  // expire (lazily, at the primary) between checkpoints.  Each round ends
  // with a checkpoint of replica 0.
  KvBed kv(/*servers=*/2, /*seed=*/23);
  Rng rng(2303);
  Micros max_ttl = 0;
  std::vector<Bytes> checkpoints;
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 12; ++i) {
      const std::string key = "k" + std::to_string(rng.below(20));
      const std::uint64_t owner = 1 + rng.below(3);
      switch (rng.below(4)) {
        case 0:
          kv.call(kv_put(key, std::string(rng.below(40), static_cast<char>('a' + rng.below(26))),
                         rng.below(2) == 0 ? 0 : owner));
          break;
        case 1:
          kv.call(kv_del(key, owner));
          break;
        case 2: {
          const Micros ttl = 2'000 + static_cast<Micros>(rng.below(30'000));
          max_ttl = std::max(max_ttl, ttl);
          kv.call(kv_acquire(key, owner, ttl));
          break;
        }
        case 3:
          kv.call(kv_release(key, owner));
          break;
      }
    }
    checkpoints.push_back(kv.app(0).checkpoint());
  }
  // End on live leases, for the forged snapshots below to clash with.
  for (const char* key : {"k3", "k11", "k17"}) kv.call(kv_acquire(key, 1, 30'000));
  checkpoints.push_back(kv.app(0).checkpoint());
  // From here on every group-clock reading is past every lease deadline.
  kv.tb.sim().run_for(max_ttl + 100'000);

  // The apps under test sit on replica 1's time service, each on a thread
  // of its own, so their clock rounds do not disturb the group's.
  replication::ReplicaManager& host = kv.tb.server(1);
  auto context = [&](std::uint32_t thread) {
    host.time_service().register_thread(ThreadId{thread});
    return replication::ReplicaContext{kv.tb.sim(), host.time_service(),
                                       kv.tb.config().server_group, ReplicaId{9}, ThreadId{thread},
                                       kv.tb.clock_of(kv.tb.server_node(1))};
  };
  replication::ReplicaContext chain_ctx = context(90);
  replication::ReplicaContext step_ctx = context(91);
  replication::ReplicaContext fresh_ctx = context(92);

  const auto expect_same = [](const KvStoreApp& a, const KvStoreApp& b, const std::string& what) {
    EXPECT_EQ(a.checkpoint(), b.checkpoint()) << what;
    EXPECT_EQ(a.state_digest(), b.state_digest()) << what;
    EXPECT_EQ(a.key_count(), b.key_count()) << what;
    EXPECT_EQ(a.leases_expired(), b.leases_expired()) << what;
  };
  const auto without_probe = [](const KvStoreApp& app) {
    RawSnapshot snap = RawSnapshot::parse(app.checkpoint());
    std::erase_if(snap.entries, [](const RawSnapshot::Entry& e) { return e.key == "~probe"; });
    return snap.encode();
  };
  // An ACQUIRE past every deadline expires every lease the app holds.
  // Returns how many it expired.
  const auto acquire_probe = [&](KvStoreApp& app) {
    const std::uint64_t before = app.leases_expired();
    bool done = false;
    app.handle_request(kv_acquire("~probe", 9, 1'000), [&](Bytes) { done = true; });
    EXPECT_TRUE(run_until(kv.tb, [&] { return done; }, 5'000'000));
    return app.leases_expired() - before;
  };
  // Restore `snapshot` into `app` in place and into a fresh app: both must
  // agree, and, if `probe`, expire the same leases on the probe.  Returns
  // how many the probe expired.
  const auto check = [&](KvStoreApp& app, const Bytes& snapshot, const std::string& what,
                         bool probe) -> std::uint64_t {
    app.restore(snapshot);
    KvStoreApp fresh(fresh_ctx, {});
    fresh.restore(snapshot);
    expect_same(app, fresh, what);
    if (!probe) return 0;
    const std::uint64_t expired = acquire_probe(fresh);
    EXPECT_EQ(acquire_probe(app), expired) << what;
    // Equal apart from the probe's own lease, which each app took at a
    // different group-clock reading.
    EXPECT_EQ(without_probe(app), without_probe(fresh)) << what;
    return expired;
  };

  // `chain` follows every checkpoint in place, as a passive backup does;
  // `step` makes one in-place step from the previous checkpoint and probes.
  KvStoreApp chain(chain_ctx, {});
  std::uint64_t probed_leases = 0;
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    const std::string what = "checkpoint " + std::to_string(k);
    check(chain, checkpoints[k], what, /*probe=*/false);
    if (k == 0) continue;
    KvStoreApp step(step_ctx, {});
    step.restore(checkpoints[k - 1]);
    probed_leases += check(step, checkpoints[k], what + " (one step)", /*probe=*/true);
  }
  // The probes saw live leases, so a stale or missing deadline would show.
  EXPECT_GT(probed_leases, 0u);
  check(chain, checkpoints.back(), "chain", /*probe=*/true);

  // Forged snapshots, each restored in place over the last genuine one and
  // followed by another genuine one restored in place over it.
  const RawSnapshot last = RawSnapshot::parse(checkpoints.back());
  const auto leased = std::find_if(last.entries.rbegin(), last.entries.rend(),
                                   [](const RawSnapshot::Entry& e) { return e.lease_owner != 0; });
  ASSERT_GE(last.entries.rend() - leased, 2) << "no lease past the first key to clash with";
  RawSnapshot unsorted = last;
  std::reverse(unsorted.entries.begin(), unsorted.entries.end());
  RawSnapshot duplicated = last;  // an unleased key, then a leased twin of it
  const auto unleased =
      std::find_if(duplicated.entries.begin(), duplicated.entries.end(),
                   [](const RawSnapshot::Entry& e) { return e.lease_owner == 0; });
  ASSERT_NE(unleased, duplicated.entries.end());
  RawSnapshot::Entry twin = *unleased;
  twin.value = "twin";
  twin.lease_owner = 7;
  twin.lease_expiry = 1;
  twin.lease_grant = 999'999;
  duplicated.entries.insert(unleased + 1, twin);
  RawSnapshot shared_slot = last;  // the first key takes a later key's lease slot
  shared_slot.entries[0].lease_owner = 5;
  shared_slot.entries[0].lease_expiry = leased->lease_expiry;
  shared_slot.entries[0].lease_grant = leased->lease_grant;
  for (const auto& [forged, what] : {std::pair{unsorted, "unsorted"},
                                     std::pair{duplicated, "duplicate key"},
                                     std::pair{shared_slot, "shared lease slot"}}) {
    check(chain, checkpoints.back(), std::string("genuine before ") + what, /*probe=*/false);
    KvStoreApp fresh(fresh_ctx, {});
    fresh.restore(forged.encode());
    EXPECT_EQ(fresh.checkpoint(), forged.installed().encode()) << what;
    check(chain, forged.encode(), what, /*probe=*/true);
    check(chain, checkpoints[checkpoints.size() - 2], std::string("genuine after ") + what,
          /*probe=*/true);
  }

  // Truncated snapshots: both restores throw, and the in-place app keeps
  // the state it had.
  const Bytes held = chain.checkpoint();
  const std::uint64_t held_digest = chain.state_digest();
  const Bytes& full = checkpoints.back();
  for (const std::size_t len : {std::size_t{0}, std::size_t{5}, std::size_t{30}, full.size() / 2,
                                full.size() - 1}) {
    const Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(chain.restore(cut), CodecError) << "length " << len;
    KvStoreApp fresh(fresh_ctx, {});
    EXPECT_THROW(fresh.restore(cut), CodecError) << "length " << len;
    EXPECT_EQ(chain.checkpoint(), held) << "length " << len;
    EXPECT_EQ(chain.state_digest(), held_digest) << "length " << len;
  }
}

}  // namespace
}  // namespace cts::app
