// Crash-sweep for cross-shard handoffs: the two-phase lease transfer and
// session migration must survive a representative crashing at ANY point in
// the handoff window — phase 1 (ordered release on the source ring), the
// stamping round, the link crossing, or adoption on the destination ring.
//
// The mechanism under test is the one the paper builds everything on:
// every live replica of the source ring performs the identical stamped
// send, GCS duplicate suppression collapses the copies, and ONE survivor
// suffices to complete the transfer.  The sweep lands a crash on every
// event index inside the window (crash_sweep_test's grid, lifted from one
// Testbed to a two-ring archipelago) and asserts, for every index:
//
//   1. reads_after_failure() == 0 — fail-stop holds on the dead node;
//   2. the ordering oracle saw a fully causal history on both rings
//      (zero violations, zero cross-shard floor violations);
//   3. exactly-one-owner — the migrated entry ends up on the destination
//      ring and nowhere else, on every surviving replica of both rings.
//
// A restart pass re-runs a slice of the grid and checks the restarted
// node converges to the same ownership via state transfer, and a
// double-run slice checks the swept schedule is seed-stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/session_manager.hpp"
#include "app/topology.hpp"
#include "obs/oracle.hpp"

namespace cts::app {
namespace {

// A key that hashes to ring 0 of a 2-ring map, so the put/acquire/migrate
// stream routes locally and the sweep exercises the handoff, not the
// gateway forward path.
std::string ring0_key(const ShardMap& map) {
  for (int i = 0;; ++i) {
    std::string k = "h" + std::to_string(i);
    if (map.shard_of_key(k) == 0) return k;
  }
}

Archipelago make_rig(std::uint64_t seed,
                     std::function<replication::ReplicaFactory(const ShardMap&, std::size_t)> app) {
  ArchipelagoConfig cfg;
  cfg.topo = TopologySpec{2, 3, /*with_client=*/true};
  cfg.seed = seed;
  cfg.app = std::move(app);
  return Archipelago(std::move(cfg));
}

replication::ReplicaFactory kv_app(const ShardMap& map, std::size_t ring) {
  return kv_store_factory({.shard_map = &map, .ring = ring});
}

replication::ReplicaFactory session_app(const ShardMap& map, std::size_t ring) {
  return session_manager_factory({.shard_map = &map, .ring = ring});
}

KvStoreApp& kv_of(Archipelago& ar, std::size_t r, std::uint32_t s) {
  return static_cast<KvStoreApp&>(ar.ring(r).server(s).app());
}

SessionManagerApp& sm_of(Archipelago& ar, std::size_t r, std::uint32_t s) {
  return static_cast<SessionManagerApp&>(ar.ring(r).server(s).app());
}

// Everything observable about one swept KV-handoff crash run.
struct HandoffTrace {
  Micros crash_time = 0;
  Micros transfer_stamp = 0;
  int steps_taken = 0;  // events actually stepped past the migrate send
  KvStatus final_status = KvStatus::kBadRequest;
  std::uint64_t reads_after_failure = 0;
  std::uint64_t src_handoffs_out = 0;  // summed over surviving ring-0 replicas
  std::uint64_t dst_handoffs_in = 0;   // summed over surviving ring-1 replicas
  bool one_owner = false;

  friend bool operator==(const HandoffTrace&, const HandoffTrace&) = default;
};

// Drive put → acquire → migrate(key, ring 1), stepping the coordinator's
// canonical serial schedule one event at a time once the migrate is in
// flight, and crash (victim_ring, victim_server) at exactly `event_index`
// events past the send.  `restart` additionally brings the victim back and
// waits for recovery before taking the ownership snapshot.
HandoffTrace run_kv_crash_at(std::uint64_t seed, std::size_t victim_ring,
                             std::uint32_t victim_server, int event_index, bool restart) {
  Archipelago ar = make_rig(seed, kv_app);
  const std::string key = ring0_key(ar.shard_map());
  ar.start();

  bool migrate_inflight = false;
  bool done = false;
  HandoffTrace t;
  auto driver = [&]() -> sim::Task {
    (void)co_await ar.router(0).call(kv_put(key, "payload"));
    (void)co_await ar.router(0).call(kv_acquire(key, /*owner=*/7, /*ttl=*/30'000'000));
    migrate_inflight = true;
    while (true) {
      const Bytes raw = co_await ar.router(0).call(kv_migrate(key, 1));
      const KvReply rep = KvReply::parse(raw);
      if (rep.status != KvStatus::kRetry) {
        t.final_status = rep.status;
        t.transfer_stamp = rep.lease_expiry;  // migrate replies carry the stamp here
        break;
      }
      co_await ar.ring(0).sim().delay(50'000);
    }
    done = true;
  };
  driver();

  // Step to the start of the handoff window (the migrate request enters
  // the stack the moment the acquire reply resumes the driver), then land
  // the crash `event_index` events later on the serial event grid.
  const Micros bound = ar.now() + 20'000'000;
  while (!migrate_inflight && ar.coordinator().step(bound)) {
  }
  for (int i = 0; i < event_index; ++i) {
    if (!ar.coordinator().step(bound)) break;
    ++t.steps_taken;
  }

  // Island-local time: the coordinator's clock only advances on epoch
  // boundaries, but the victim's ring has executed the stepped events.
  t.crash_time = ar.ring(victim_ring).sim().now();
  ar.crash_server(victim_ring, victim_server);
  const auto victim_node = ar.ring(victim_ring).server_node(victim_server);

  const Micros deadline = ar.now() + 30'000'000;
  while (!done && ar.now() < deadline) ar.run_for(100'000);
  t.reads_after_failure = ar.ring(victim_ring).clock_of(victim_node).reads_after_failure();

  if (restart) {
    ar.restart_server(victim_ring, victim_server);
    const Micros rdl = ar.now() + 60'000'000;
    while (!ar.ring(victim_ring).server(victim_server).recovered() && ar.now() < rdl) {
      ar.run_for(100'000);
    }
  }

  // Ownership snapshot: the entry lives on ring 1 and nowhere else, at
  // every replica we can legitimately inspect (survivors always; the
  // victim too once state transfer has run).
  t.one_owner = done;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      const bool is_victim = r == victim_ring && s == victim_server;
      if (is_victim && !restart) continue;
      const bool expect_here = r == 1;
      if (kv_of(ar, r, s).has_key(key) != expect_here) t.one_owner = false;
      if (!is_victim) {
        if (r == 0) t.src_handoffs_out += kv_of(ar, r, s).handoffs_out();
        if (r == 1) t.dst_handoffs_in += kv_of(ar, r, s).handoffs_in();
      }
    }
  }
  return t;
}

void expect_clean(Archipelago& ar) {
  for (std::size_t r = 0; r < ar.ring_count(); ++r) {
    const auto* orc = ar.ring(r).recorder().oracle();
    ASSERT_NE(orc, nullptr);
    EXPECT_EQ(orc->violations(), 0u) << "ring " << r;
    EXPECT_EQ(orc->cross_shard_violations(), 0u) << "ring " << r;
    EXPECT_GT(orc->checks_run(), 0u) << "ring " << r;
  }
}

void expect_survived(const HandoffTrace& t, std::size_t vr, std::uint32_t vs, int idx) {
  SCOPED_TRACE("victim=ring" + std::to_string(vr) + "/s" + std::to_string(vs) +
               " event_index=" + std::to_string(idx) +
               " crash_time=" + std::to_string(t.crash_time));
  EXPECT_EQ(t.reads_after_failure, 0u);
  // The window never ran dry: every sweep point landed on a distinct
  // event-grid position past the migrate send.
  EXPECT_EQ(t.steps_taken, idx);
  EXPECT_EQ(t.final_status, KvStatus::kOk);
  EXPECT_GT(t.transfer_stamp, 0);
  EXPECT_TRUE(t.one_owner);
  // Every surviving replica counts the one transfer exactly once: two
  // survivors on the victim's ring, all three on the other.
  EXPECT_EQ(t.src_handoffs_out, vr == 0 ? 2u : 3u);
  EXPECT_EQ(t.dst_handoffs_in, vr == 1 ? 2u : 3u);
}

// Note: the Testbed's oracle runs with abort_on_violation=true, so every
// run below doubles as a hard causality tripwire — a floor or cross-shard
// violation anywhere in the sweep aborts the test process outright.  The
// expect_clean() checks in the dedicated test below make the property
// visible as an assertion too.

// The main grid: crash the SOURCE ring's representative (and a backup) at
// every event index in the window that starts the moment the migrate
// request is in flight.
TEST(HandoffSweepTest, SourceRingCrashAtEveryEventIndex) {
  constexpr int kWindow = 14;
  for (std::uint32_t victim : {0u, 1u}) {
    for (int idx = 0; idx < kWindow; ++idx) {
      const HandoffTrace t = run_kv_crash_at(901, /*victim_ring=*/0, victim, idx, false);
      expect_survived(t, 0, victim, idx);
    }
  }
}

// Same grid on the DESTINATION ring: the crash lands before, during, or
// after the stamped adoption; the survivors adopt and state transfer
// covers the victim.
TEST(HandoffSweepTest, DestinationRingCrashAtEveryEventIndex) {
  constexpr int kWindow = 14;
  for (std::uint32_t victim : {0u, 1u}) {
    for (int idx = 0; idx < kWindow; ++idx) {
      const HandoffTrace t = run_kv_crash_at(902, /*victim_ring=*/1, victim, idx, false);
      expect_survived(t, 1, victim, idx);
    }
  }
}

// Restart slice: bring the victim back at a few swept indices and require
// it to converge — via state transfer — to the same single-owner picture,
// with the fail-stop tripwire still clean.
TEST(HandoffSweepTest, RestartAfterSweptCrashConvergesToOneOwner) {
  for (int idx : {1, 5, 9}) {
    for (std::size_t vr : {std::size_t{0}, std::size_t{1}}) {
      const HandoffTrace t = run_kv_crash_at(903, vr, 0, idx, true);
      expect_survived(t, vr, 0, idx);
    }
  }
}

// Oracle visibility: re-run one swept point with an explicit post-run
// check of both rings' oracles (every other run already aborts on a
// violation; this makes the zero-violation claim an assertion).
TEST(HandoffSweepTest, SweptCrashKeepsBothOraclesClean) {
  Archipelago ar = make_rig(904, kv_app);
  const std::string key = ring0_key(ar.shard_map());
  ar.start();

  bool inflight = false;
  bool done = false;
  KvStatus final_status = KvStatus::kBadRequest;
  auto driver = [&]() -> sim::Task {
    (void)co_await ar.router(0).call(kv_put(key, "v"));
    inflight = true;
    while (true) {
      const KvReply rep = KvReply::parse(co_await ar.router(0).call(kv_migrate(key, 1)));
      if (rep.status != KvStatus::kRetry) {
        final_status = rep.status;
        break;
      }
      co_await ar.ring(0).sim().delay(50'000);
    }
    done = true;
  };
  driver();

  const Micros bound = ar.now() + 20'000'000;
  while (!inflight && ar.coordinator().step(bound)) {
  }
  for (int i = 0; i < 7; ++i) ar.coordinator().step(bound);
  ar.crash_server(0, 0);
  const Micros deadline = ar.now() + 30'000'000;
  while (!done && ar.now() < deadline) ar.run_for(100'000);

  ASSERT_TRUE(done);
  EXPECT_EQ(final_status, KvStatus::kOk);
  expect_clean(ar);
}

// Seed stability: the same (seed, victim, index) coordinates must replay
// the same crash — same crash time, same stamp, same ownership, same
// handoff accounting.
TEST(HandoffSweepTest, SweepScheduleIsSeedStableAcrossRuns) {
  for (int idx : {0, 4, 8, 12}) {
    const HandoffTrace a = run_kv_crash_at(905, 0, 1, idx, false);
    const HandoffTrace b = run_kv_crash_at(905, 0, 1, idx, false);
    SCOPED_TRACE("event_index=" + std::to_string(idx));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.reads_after_failure, 0u);
  }
}

// Session migration rides the same two-phase machinery on its own stamp
// stream; sweep a slice of indices on both rings to pin that the shape —
// not just the KV instantiation — survives representative crashes.
TEST(HandoffSweepTest, SessionMigrationSurvivesSweptCrashes) {
  for (int idx : {0, 3, 6, 9, 12}) {
    for (std::size_t vr : {std::size_t{0}, std::size_t{1}}) {
      Archipelago ar = make_rig(906, session_app);
      ar.start();

      bool inflight = false;
      bool done = false;
      std::uint64_t id = 0;
      SessionStatus final_status = SessionStatus::kBadRequest;
      auto driver = [&]() -> sim::Task {
        const SessionReply opened =
            SessionReply::parse(co_await ar.router(0).call(session_open(60'000'000)));
        id = opened.session_id;
        inflight = true;
        while (true) {
          const SessionReply rep =
              SessionReply::parse(co_await ar.router(0).call(session_migrate(id, 1)));
          // kBadRequest after a successful open means the stamp stream was
          // busy (the session-side analogue of KvStatus::kRetry): retry.
          if (rep.status != SessionStatus::kBadRequest) {
            final_status = rep.status;
            break;
          }
          co_await ar.ring(0).sim().delay(50'000);
        }
        done = true;
      };
      driver();

      const Micros bound = ar.now() + 20'000'000;
      while (!inflight && ar.coordinator().step(bound)) {
      }
      for (int i = 0; i < idx; ++i) {
        if (!ar.coordinator().step(bound)) break;
      }
      ar.crash_server(vr, 0);
      const auto victim_node = ar.ring(vr).server_node(0);
      const Micros deadline = ar.now() + 30'000'000;
      while (!done && ar.now() < deadline) ar.run_for(100'000);

      SCOPED_TRACE("victim_ring=" + std::to_string(vr) + " event_index=" + std::to_string(idx));
      ASSERT_TRUE(done);
      EXPECT_EQ(final_status, SessionStatus::kOk);
      EXPECT_EQ(ar.ring(vr).clock_of(victim_node).reads_after_failure(), 0u);
      // Exactly-one-owner on every surviving replica.
      for (std::size_t r = 0; r < 2; ++r) {
        for (std::uint32_t s = 0; s < 3; ++s) {
          if (r == vr && s == 0) continue;
          EXPECT_EQ(sm_of(ar, r, s).has_session(id), r == 1)
              << "ring " << r << " server " << s;
        }
      }
      expect_clean(ar);
    }
  }
}

}  // namespace
}  // namespace cts::app
