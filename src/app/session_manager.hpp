// A replicated session manager — the paper's "transaction session
// management" motivation (Section 1) as a standalone application.
//
// Sessions are created with a time-to-live, renewed by touching, and
// reaped when idle past their TTL.  Every time-dependent decision — the
// session id, the creation stamp, the idle check, the reaping instant —
// comes from the group clock, so all replicas agree on which sessions
// exist at every logical point, across failover and recovery.
//
// Reaping is lazy, as in KvStoreApp.  Every request whose reply depends on
// which sessions are live (all but a malformed one) reads the group clock
// first, and that reading first reaps every session and batch whose
// deadline it has reached.  Each reap therefore sits at one request's
// position in the agreed stream, the same at every replica; no poll thread
// runs.
//
// Operations (ordered requests):
//   OPEN ttl                → new session id (deterministic), expiry stamp
//   TOUCH id                → extend the session's idle deadline
//   CLOSE id                → explicit termination
//   QUERY id                → alive? + last-activity stamp
//   COUNT                   → live-session count + deterministic digest
//   MIGRATE id dst_ring     → cross-shard session migration (sharded mode):
//                             a causally stamped two-phase handoff to the
//                             owning ring (doc/SHARDING.md)
//   OPEN_MANY count ttl     → synthetic bulk ingest: `count` sessions from
//                             ONE id round + ONE clock round, stored as a
//                             compact batch record — how the scalability
//                             bench loads millions of sessions per ring
//                             without millions of CCS rounds
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "app/topology.hpp"
#include "cts/id_gen.hpp"
#include "cts/multigroup.hpp"
#include "cts/time_syscalls.hpp"
#include "replication/replica.hpp"

namespace cts::app {

enum class SessionOp : std::uint8_t {
  kOpen = 1,
  kTouch = 2,
  kClose = 3,
  kQuery = 4,
  kCount = 5,
  kMigrate = 6,
  kOpenMany = 7,
};

enum class SessionStatus : std::uint8_t {
  kOk = 0,
  kUnknownSession = 1,  // never existed, expired, or closed
  kBadRequest = 2,
};

// --- Client-side helpers ---------------------------------------------------------

Bytes session_open(Micros ttl_us);
Bytes session_touch(std::uint64_t id);
Bytes session_close(std::uint64_t id);
Bytes session_query(std::uint64_t id);
Bytes session_count();
Bytes session_migrate(std::uint64_t id, std::uint32_t dst_ring);
Bytes session_open_many(std::uint32_t count, Micros ttl_us);

struct SessionReply {
  SessionStatus status = SessionStatus::kBadRequest;
  std::uint64_t session_id = 0;
  Micros stamp = 0;  // creation/last-activity/expiry stamp, group time
  std::uint64_t live_count = 0;
  std::uint64_t digest = 0;

  static SessionReply parse(const Bytes& b);
};

// --- The replicated manager --------------------------------------------------------

class SessionManagerApp : public replication::Replica {
 public:
  struct Options {
    /// Sharded deployment (nullptr = single-ring, no handoff stream; see
    /// KvStoreApp::Options for the contract — the map must outlive the
    /// app, and handoff-enabled managers must run with shards = 1).
    const ShardMap* shard_map = nullptr;
    std::size_t ring = 0;
  };

  explicit SessionManagerApp(replication::ReplicaContext& ctx) : SessionManagerApp(ctx, Options{}) {}
  SessionManagerApp(replication::ReplicaContext& ctx, Options opt);

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override;
  [[nodiscard]] Bytes checkpoint() const override;
  void restore(const Bytes& state) override;

  [[nodiscard]] std::uint64_t state_digest() const;
  /// Individually tracked sessions plus members of bulk-ingested batches.
  [[nodiscard]] std::uint64_t live_sessions() const { return sessions_.size() + batched_; }
  [[nodiscard]] std::uint64_t sessions_reaped() const { return reaped_; }
  [[nodiscard]] std::uint64_t handoffs_out() const { return handoffs_out_; }
  [[nodiscard]] std::uint64_t handoffs_in() const { return handoffs_in_; }
  [[nodiscard]] bool has_session(std::uint64_t id) const { return sessions_.count(id) != 0; }

 private:
  struct Session {
    Micros ttl = 0;
    Micros last_activity = 0;  // group time
    std::uint64_t epoch = 0;   // distinguishes successive deadlines
  };
  /// A bulk-ingested batch: `count` synthetic sessions with consecutive
  /// ids [base_id, base_id + count), one record and one deadline for all
  /// of them.  O(batches) memory is what makes millions of sessions per
  /// ring affordable; members answer QUERY but not TOUCH/CLOSE.
  struct Batch {
    std::uint32_t count = 0;
    Micros ttl = 0;
    Micros last_activity = 0;
    std::uint64_t epoch = 0;
  };

  /// (deadline, epoch): epochs are unique across sessions and batches.
  using DeadlineKey = std::pair<Micros, std::uint64_t>;
  /// What a deadline reaps: a session, or a batch by its base id.
  struct Due {
    std::uint64_t id = 0;
    bool batch = false;
  };

  sim::Task serve(SharedBytes request, std::function<void(Bytes)> done);
  /// Keep `deadlines_` equal to the live sessions and batches: unindex a
  /// session before its deadline changes or it goes, index it after.
  void index(std::uint64_t id, const Session& s);
  void index(std::uint64_t base_id, const Batch& b);
  void unindex(const Session& s);
  /// Replace (or create) session `id`, keeping the deadline index exact.
  void install(std::uint64_t id, const Session& s);
  /// Reap everything whose deadline is at or below `now`, a group-clock
  /// reading the current request just took.
  void reap_due(Micros now);
  void adopt_handoff(const gcs::Message& m, Micros stamp, const Bytes& record);
  [[nodiscard]] const Batch* batch_of(std::uint64_t id, std::uint64_t* base) const;

  replication::ReplicaContext& ctx_;
  ccs::TimeSyscalls sys_;
  ccs::ConsistentIdGenerator ids_;
  Options opt_;

  std::map<std::uint64_t, Session> sessions_;
  std::map<std::uint64_t, Batch> batches_;  // by base id
  std::map<DeadlineKey, Due> deadlines_;    // live sessions and batches, earliest first
  std::uint64_t batched_ = 0;               // sum of live batch counts
  std::uint64_t epoch_counter_ = 0;
  std::uint64_t reaped_ = 0;

  // Cross-shard migration stream (sharded mode only; doc/SHARDING.md).
  std::unique_ptr<ccs::CausalMessenger> handoff_;
  std::uint64_t handoff_seq_ = 0;  // checkpointed: survives failover
  std::uint64_t handoffs_out_ = 0;
  std::uint64_t handoffs_in_ = 0;
};

replication::ReplicaFactory session_manager_factory(SessionManagerApp::Options opt = {});

}  // namespace cts::app
