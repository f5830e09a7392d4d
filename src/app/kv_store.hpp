// A replicated key-value store with lease-based ownership — a realistic
// application of the consistent time service.
//
// Leases are the classic place where clock non-determinism corrupts
// replicated state: "is this lease still valid?" is answered by comparing
// a clock reading against the expiry.  If replicas read their own hardware
// clocks, one replica grants a lease another replica still considers held,
// and the copies of the store diverge.  KvStoreApp answers every such
// question with the GROUP clock, so all replicas make identical lease
// decisions.
//
// Expiry is lazy.  The app keeps its live leases ordered by deadline, and
// every request that reads the group clock (ACQUIRE, and PUT/DEL on a
// leased key) reads it once, first expires every lease whose deadline that
// reading has passed, and only then decides.  Each expiry therefore sits
// at one request's position in the agreed stream, the same position at
// every replica (cts/deadlines.hpp).
//
// Operations (all requests arrive in agreed total order):
//   PUT key value [owner]   — write; fails if the key is leased to someone
//                             else and the lease has not expired
//   GET key                 — read value + version (no clock round)
//   DEL key [owner]         — delete, same lease check as PUT
//   ACQUIRE key owner ttl   — take the lease if free / expired / yours;
//                             reply carries the expiry in group time
//   RELEASE key owner       — drop the lease if held by `owner`
//   STATS                   — deterministic state digest (for tests)
//   MIGRATE key dst_ring    — cross-shard lease transfer (sharded mode):
//                             release the entry here, hand it to the owning
//                             ring as a causally stamped two-phase handoff
//                             (doc/SHARDING.md)
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "app/handoff.hpp"
#include "cts/deadlines.hpp"
#include "cts/time_syscalls.hpp"
#include "gcs/gcs.hpp"
#include "replication/replica.hpp"

namespace cts::app {

enum class KvOp : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
  kAcquire = 4,
  kRelease = 5,
  kStats = 6,
  kMigrate = 7,
};

enum class KvStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kLeaseHeld = 2,   // someone else's unexpired lease blocks the write
  kLeaseDenied = 3, // acquire refused
  kBadRequest = 4,
  kRetry = 5,       // transient: the handoff stamp stream was busy
};

[[nodiscard]] const char* to_string(KvStatus s);

// --- Client-side request builders / reply parsers ------------------------------

Bytes kv_put(const std::string& key, const std::string& value, std::uint64_t owner = 0);
Bytes kv_get(const std::string& key);
Bytes kv_del(const std::string& key, std::uint64_t owner = 0);
Bytes kv_acquire(const std::string& key, std::uint64_t owner, Micros ttl_us);
Bytes kv_release(const std::string& key, std::uint64_t owner);
Bytes kv_stats();
Bytes kv_migrate(const std::string& key, std::uint32_t dst_ring);

struct KvReply {
  KvStatus status = KvStatus::kBadRequest;
  std::string value;        // kGet
  std::uint64_t version = 0;
  Micros lease_expiry = 0;  // kAcquire (group time)
  std::uint64_t key_count = 0;     // kStats
  std::uint64_t state_digest = 0;  // kStats

  static KvReply parse(const Bytes& b);
};

// --- The replicated store --------------------------------------------------------

class KvStoreApp : public replication::Replica {
 public:
  /// Sharded deployment: MIGRATE exports entries to other rings and
  /// adoption installs entries stamped by them (see HandoffStream).
  using Options = HandoffStream::Options;

  KvStoreApp(replication::ReplicaContext& ctx, Options opt);

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override;
  [[nodiscard]] Bytes checkpoint() const override;
  void restore(const Bytes& state) override;

  // Introspection for tests (all replica-deterministic).
  [[nodiscard]] std::uint64_t state_digest() const override;
  [[nodiscard]] std::size_t key_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t leases_expired() const { return leases_expired_; }
  [[nodiscard]] std::uint64_t handoffs_out() const { return handoff_.sent(); }
  [[nodiscard]] std::uint64_t handoffs_in() const { return handoff_.adopted(); }
  [[nodiscard]] bool has_key(const std::string& key) const { return entries_.count(key) != 0; }

 private:
  struct Entry {
    std::string value;
    std::uint64_t version = 0;
    std::uint64_t lease_owner = 0;  // 0 = unleased
    Micros lease_expiry = 0;        // group time
    std::uint64_t lease_grant = 0;  // distinguishes successive leases
  };

  /// One entry of a checkpoint being restored, viewing the checkpoint bytes.
  struct SnapshotEntry;

  sim::Task serve(SharedBytes request, std::function<void(Bytes)> done);
  [[nodiscard]] bool lease_blocks(const Entry& e, std::uint64_t owner, Micros now) const;
  /// Keep `leases_` equal to the set of live leases: disarm before a lease
  /// changes or its entry goes, arm after one is granted.  Returns false if
  /// another entry's lease already holds the same (expiry, grant) slot.
  bool arm_lease(const std::string& key, const Entry& e) {
    return e.lease_owner == 0 || leases_.arm(e.lease_expiry, e.lease_grant, key);
  }
  void disarm_lease(const Entry& e) {
    if (e.lease_owner != 0) leases_.disarm(e.lease_expiry, e.lease_grant);
  }
  /// Replace (or create) `key`'s entry, keeping the deadline index exact.
  void install(const std::string& key, Entry e);
  /// Turn the live store into `snap` (keys strictly increasing), touching
  /// only the entries that differ.  Returns false if the result may differ
  /// from installing `snap` into an empty store: the live lease index was
  /// not exact, or a lease found its (expiry, grant) slot taken.
  bool merge(std::span<const SnapshotEntry> snap);
  /// Expire every lease whose deadline is at or below `now`, a group-clock
  /// reading the current request just took.
  void expire_leases(Micros now);
  /// Destination side of a handoff: install the stamped record.  Runs in
  /// agreed delivery order, AFTER the causal floor was raised to the
  /// transfer stamp — so any reading taken after adoption exceeds it.
  void adopt_handoff(const Bytes& record);

  ccs::TimeSyscalls sys_;

  std::map<std::string, Entry> entries_;
  ccs::DeadlineIndex<std::string> leases_;  // live leases by (expiry, grant)
  std::uint64_t grant_counter_ = 0;
  std::uint64_t leases_expired_ = 0;

  // Cross-shard handoff stream (sharded mode only; see doc/SHARDING.md).
  HandoffStream handoff_;
};

replication::ReplicaFactory kv_store_factory(KvStoreApp::Options opt = {});

/// Deterministic request→shard routing for sharded KV deployments: hashes
/// the key, so all operations on one key share one processing thread.
std::uint32_t kv_shard_of(const gcs::Message& m);

}  // namespace cts::app
