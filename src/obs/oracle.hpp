// OrderingOracle: a runtime checker for the paper's ordering guarantees.
//
// The test suite's assertions are mostly end-state equality and
// byte-identical traces; both can stay green while an ordering invariant is
// violated for a window and repaired before the final check.  The oracle
// closes that gap: hooks threaded through GCS delivery, the CTS round
// engine, the CausalMessenger and the ReplicaManager report every ordering
// decision, and the oracle verifies the properties the paper promises *as
// they happen*:
//
//   1. Total order (Totem/GCS): every node delivers each group's messages
//      as a subsequence of one canonical sequence (the order of first
//      delivery anywhere), and each (conn, type, tag, seq) key carries the
//      same payload bytes at every node.
//   2. Membership (virtual synchrony): a delivery's sender is a member of
//      the receiving node's currently installed ring view.  Sound because
//      Totem installs a new view only after the transitional flush of
//      old-ring messages, and recovery rebroadcast accepts only messages
//      from the receiver's own old ring (totem.cpp).
//   3. Group-clock monotonicity (paper Section 3): the values returned by
//      completed CCS rounds are strictly increasing per (group, replica,
//      thread), and round numbers never repeat.
//   4. Round agreement: every replica that completes round (group, thread,
//      seq) observes the same group-clock value and the same synchronizer.
//   5. Causal floor (paper Section 5): no proposal is sent at or below the
//      sender's floor, where the oracle tracks the floor itself from the
//      timestamps the CausalMessenger observed — a CTS that forgets to
//      raise its floor is caught, not trusted.  At completion, a value the
//      fast-forward guard clamped below the winner's floor-at-send is a
//      violation; a clamp that stays above it is only counted.
//   6. Checkpoint coverage (state transfer): every adopted checkpoint
//      chain is link-consistent (parent[i] == link[i-1], non-decreasing
//      `upto`), verified by the adopter, and never rolls an earlier
//      adoption back; recovery epochs are strictly increasing.
//
// The oracle lives in the Recorder (one per Testbed) and is reached through
// the same nullable pointers the metrics wiring uses, so the stack runs
// unchanged — and the hooks compile to nothing on the hot token-ring path —
// when it is off.  Checks never feed back into the simulation: no RNG, no
// scheduled events, no mutation of protocol state.
//
// Violations increment `oracle.*` counters, append a kOracleViolation trace
// event and (by default under the Testbed) abort the process so a test run
// cannot quietly pass across one.  Injection tests construct the oracle
// directly with abort disabled and assert that each check fires.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace cts::obs {

/// One header of a checkpoint hash chain, mirrored into plain integers so
/// the oracle does not depend on the replication layer's types.
struct CheckpointLink {
  std::uint64_t upto = 0;
  std::uint64_t digest = 0;
  std::uint64_t parent = 0;
  std::uint64_t link = 0;
};

class OrderingOracle {
 public:
  enum class Check : std::uint8_t {
    kTotalOrder = 0,
    kMembership,
    kClockMonotonicity,
    kAgreement,
    kCausalFloor,
    kCheckpoint,
  };
  static constexpr std::size_t kCheckCount = 6;

  struct Violation {
    Check check{};
    Micros at = 0;
    std::uint32_t node = NodeId::kInvalid;
    std::uint32_t replica = ReplicaId::kInvalid;
    std::string detail;
  };

  OrderingOracle(sim::Simulator& sim, MetricsRegistry& metrics, TraceLog& trace,
                 bool abort_on_violation);

  // --- Delivery / membership hooks (GCS) -------------------------------------

  /// A ring view was installed at `node`.  `members` is sorted.
  void on_view_installed(NodeId node, std::uint64_t ring_id, std::span<const NodeId> members);

  /// A message passed the GCS duplicate filter at `node` and is about to be
  /// handed to subscribers.  Join/leave control traffic never reaches here.
  void on_gcs_deliver(NodeId node, GroupId dst_grp, ConnectionId conn, std::uint8_t type,
                      ThreadId tag, MsgSeqNum seq, NodeId sender,
                      std::span<const std::uint8_t> payload);

  // --- CTS hooks -------------------------------------------------------------

  /// The CausalMessenger observed a stamped inter-group message at
  /// (grp, replica); the receiver's causal floor must now exceed `ts`.
  /// `src_grp` (when valid) is the stamping group: causal-floor violations
  /// whose floor was raised by another group's stamp are additionally
  /// counted as CROSS-SHARD violations, aggregated per (src, dst) ring
  /// pair so the scalability bench can report the worst edge
  /// gradient-style (oracle.cross_shard).
  void on_stamp_observed(GroupId grp, ReplicaId replica, Micros ts, GroupId src_grp = GroupId{});

  /// Replica (grp, replica) multicast a CCS proposal.
  void on_ccs_send(GroupId grp, ReplicaId replica, ThreadId thread, MsgSeqNum round,
                   Micros proposed, bool special);

  /// A CCS round completed (or a special-round value was adopted) at
  /// (grp, replica) with the group-clock `value` and synchronizer `winner`.
  /// `round` is the wire sequence number of the winning message.
  void on_round_complete(GroupId grp, ReplicaId replica, ThreadId thread, MsgSeqNum round,
                         Micros value, ReplicaId winner, bool special);

  // --- Replication hooks -----------------------------------------------------

  /// Replica (grp, replica) adopted (or extended to) the given checkpoint
  /// chain; `verified` is the adopter's own hash-chain verification result.
  void on_checkpoint_chain(GroupId grp, ReplicaId replica, std::span<const CheckpointLink> chain,
                           bool verified);

  /// Replica (grp, replica) issued GET_STATE for recovery epoch `epoch`.
  void on_recovery_epoch(GroupId grp, ReplicaId replica, MsgSeqNum epoch);

  // --- Lifecycle hooks -------------------------------------------------------

  /// Node `node` restarted: its GCS delivery cursor resynchronizes at its
  /// next delivery (old-ring recovery may legitimately redeliver).
  void on_node_reset(NodeId node);

  /// Replica (grp, replica) was rebuilt (warm restart): round numbers may
  /// rewind to the adopted checkpoint, but clock values must stay monotone.
  void on_replica_reset(GroupId grp, ReplicaId replica);

  /// Group `grp` suffered a total failure and is cold-starting from disk:
  /// the suffix of rounds after the newest persisted checkpoint is lost and
  /// will be re-executed with fresh values, so round agreement history is
  /// cleared.  Clock values must STILL be monotone (the restored state
  /// forces the group clock above every reading handed out before).
  void on_group_reset(GroupId grp);

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_total_; }
  [[nodiscard]] std::uint64_t violations(Check c) const {
    return violations_by_check_[static_cast<std::size_t>(c)];
  }
  /// The first violations (capped), for test diagnostics.
  [[nodiscard]] const std::vector<Violation>& violation_log() const { return log_; }

  /// Causal-floor violations whose floor was raised by a DIFFERENT group's
  /// stamp — the cross-shard causality metric ROADMAP item 1 gates on
  /// (must be zero).
  [[nodiscard]] std::uint64_t cross_shard_violations() const { return cross_shard_total_; }

  static const char* check_name(Check c);

 private:
  // All indexes are flat containers (common/flat_map.hpp) with tuple keys
  // packed into machine words whose field-wise comparison reproduces the
  // old std::map tuple order.  The per-event checks additionally keep
  // one-entry lookup caches: delivery traffic hits the same (group, stream,
  // node) keys millions of times in a row, so the amortized cost of a check
  // is a handful of compares instead of a red-black tree walk per index.
  //
  // Cache discipline: a cached pointer targets a FlatMap's heap buffer, so
  // it survives relocation of the OWNING map's elements (moving a FlatMap
  // object moves the vector object, not its buffer) but dies when the
  // TARGET map itself inserts or erases.  Every structural mutation happens
  // inside the accessor that owns the cache (which refreshes it) or in the
  // reset hooks (which null it).

  // (conn, type, tag) with conn/type packed into disjoint bit ranges of one
  // word — numeric order on `hi` is lexicographic (conn, type) order.
  struct StreamKey {
    std::uint64_t hi;  // (conn << 8) | type
    std::uint64_t lo;  // tag
    friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
  };
  // (round, replica): rounds dominate the ordering, so inserts append.
  struct RoundReplicaKey {
    MsgSeqNum round;
    std::uint32_t replica;
    friend auto operator<=>(const RoundReplicaKey&, const RoundReplicaKey&) = default;
  };

  struct CanonEntry {
    std::size_t index = 0;       // position in the canonical sequence
    std::uint64_t payload_hash = 0;
  };
  // Canonical delivery store, two-level: stream -> (seq -> entry).  Seqs
  // within a stream are delivered in near-monotone order, so the inner map
  // grows by appends; a single flat (stream, seq) index would take an O(n)
  // mid-vector insert per message once streams interleave.
  struct StreamCanon {
    FlatMap<MsgSeqNum, CanonEntry> by_seq;
    // Position of the last-touched entry.  Each node re-delivers a stream's
    // seqs in increasing order, so the next delivery is almost always at
    // `hint` or `hint + 1`; the hint turns the per-delivery lookup into a
    // couple of adjacent compares instead of a binary search across every
    // seq the stream has ever carried.  Positions of existing entries are
    // stable under the tail-append inserts this map sees (and a stale hint
    // only costs the fallback search).
    std::size_t hint = 0;
  };
  struct GroupCanon {
    FlatMap<StreamKey, StreamCanon> streams;
    std::size_t next_index = 0;
  };
  struct NodeCursor {
    std::size_t last_index = 0;
    bool synced = false;  // false until the first delivery after (re)start
  };
  struct ViewInfo {
    std::uint64_t ring_id = 0;
    std::vector<NodeId> members;
  };
  struct SendInfo {
    Micros proposed = kNoTime;
    Micros floor_at_send = kNoTime;  // oracle-tracked floor of the sender
    std::uint32_t floor_src_group = GroupId::kInvalid;  // group whose stamp set it
  };
  struct RoundRecord {
    Micros value = kNoTime;
    std::uint32_t winner = ReplicaId::kInvalid;
  };
  struct ThreadState {
    Micros last_value = kNoTime;
    MsgSeqNum last_round = 0;
    bool round_synced = false;  // round numbers resync after replica reset
  };
  struct ReplicaState {
    Micros tracked_floor = kNoTime;
    std::uint32_t floor_src_group = GroupId::kInvalid;  // stamping group of the floor
    std::uint64_t chain_tail_upto = 0;
    bool has_chain = false;
    MsgSeqNum last_epoch = 0;
    bool has_epoch = false;
    FlatMap<std::uint32_t, ThreadState> threads;  // by thread id
  };

  void violate(Check c, NodeId node, ReplicaId replica, std::string detail);
  void note_cross_shard(std::uint32_t src_group, std::uint32_t dst_group);

  /// Cached get-or-create accessors for the per-event indexes.
  GroupCanon& group_canon(std::uint32_t grp);
  StreamCanon& stream_canon(std::uint32_t grp, GroupCanon& canon, StreamKey key);
  NodeCursor& cursor(std::uint64_t node_group_key);
  ReplicaState& replica_state(GroupId grp, ReplicaId r);

  sim::Simulator& sim_;
  MetricsRegistry& metrics_;
  TraceLog& trace_;
  bool abort_on_violation_;

  Counter* c_checks_;
  Counter* c_violations_;
  Counter* c_clamped_;
  Counter* c_cross_shard_;
  Counter* violation_counters_[kCheckCount];

  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_total_ = 0;
  std::uint64_t cross_shard_total_ = 0;
  std::uint64_t violations_by_check_[kCheckCount] = {};
  std::vector<Violation> log_;

  FlatMap<std::uint32_t, GroupCanon> canon_;  // by group id
  FlatMap<std::uint64_t, NodeCursor> cursors_;  // (node << 32) | group
  DenseNodeIndex<ViewInfo> views_;            // by node id: one array load
  // (group << 32 | thread) -> (round, sender replica) -> proposal snapshot
  FlatMap<std::uint64_t, FlatMap<RoundReplicaKey, SendInfo>> sends_;
  // (group << 32 | thread) -> round -> agreed result
  FlatMap<std::uint64_t, FlatMap<MsgSeqNum, RoundRecord>> rounds_;
  FlatMap<std::uint64_t, ReplicaState> replicas_;  // (group << 32) | replica

  // One-entry lookup caches for the hot hooks (see discipline note above).
  std::uint32_t cached_canon_grp_ = GroupId::kInvalid;
  GroupCanon* cached_canon_ = nullptr;
  std::uint32_t cached_stream_grp_ = GroupId::kInvalid;
  StreamKey cached_stream_key_{};
  StreamCanon* cached_stream_ = nullptr;
  std::uint64_t cached_cursor_key_ = 0;
  NodeCursor* cached_cursor_ = nullptr;
  std::uint64_t cached_replica_key_ = 0;
  ReplicaState* cached_replica_ = nullptr;
  // Membership fast path: the last (node, sender) pair verified against the
  // node's installed view, valid only for the epoch it was checked in (any
  // view install anywhere bumps the epoch — installs are rare, deliveries
  // are not).  Only successful checks are cached; violations re-verify.
  std::uint64_t view_epoch_ = 0;
  std::uint64_t cached_member_key_ = ~0ull;  // (node << 32) | sender
  std::uint64_t cached_member_epoch_ = 0;
};

}  // namespace cts::obs
