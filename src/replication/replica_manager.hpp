// Replication infrastructure: one ReplicaManager per replica, implementing
// active, passive, and semi-active replication over the group
// communication system, with checkpoint-based state transfer and the
// special CCS round of paper Section 3.2 for recovering replicas.
//
// Styles (paper Section 2):
//   * Active: every replica processes every request and transmits the
//     reply; the GCS suppresses duplicate replies, and the Consistent Time
//     Service makes the replicas' clock reads deterministic.
//   * Semi-active: every replica processes every request, but only the
//     primary transmits replies and CCS proposals; on primary failure a
//     backup is promoted and continues from its own (identical) state.
//   * Passive: only the primary processes requests; backups log requests
//     and apply the primary's periodic checkpoints.  On failover the new
//     primary replays the logged requests past the last checkpoint; clock
//     reads during replay consume the CCS messages the old primary already
//     distributed, so the group clock stays continuous (Section 3.3).
//
// State transfer (paper Section 3.2): a recovering replica multicasts
// GET_STATE; existing replicas process it at a quiescent point (between
// requests, since processing is serialized), run the special CCS round,
// take a checkpoint (application + CTS), and multicast it.  The recovering
// replica queues requests ordered after GET_STATE, initializes its clock
// offset from the special round, applies the checkpoint, then drains the
// queue.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clock/physical_clock.hpp"
#include "common/unique_fn.hpp"
#include "cts/consistent_time_service.hpp"
#include "gcs/gcs.hpp"
#include "replication/checkpoint_chain.hpp"
#include "replication/replica.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"
#include "storage/stable_store.hpp"

namespace cts::replication {

using ccs::ReplicationStyle;

struct ManagerConfig {
  GroupId group;
  ReplicaId replica;
  ReplicationStyle style = ReplicationStyle::kActive;

  /// Connection ids (fixed per group, by convention).
  ConnectionId ccs_conn{1000};
  ConnectionId state_conn{1001};

  /// The first request-processing thread's identifier; shard i uses
  /// processing_thread.value + i.
  ThreadId processing_thread{0};

  /// Number of request-processing shards (logical threads).  Each shard is
  /// its own application instance with its own CCS handler stream; requests
  /// are routed by `shard_fn`.  The paper requires threads to be created in
  /// the same order at every replica — shards satisfy that by construction.
  /// Sharding > 1 is supported for active and semi-active replication;
  /// the manager throws std::invalid_argument for 0 or for passive > 1.
  std::uint32_t shards = 1;
  /// Deterministic request→shard routing (a pure function of the ordered
  /// message).  Default: everything to shard 0.
  std::function<std::uint32_t(const gcs::Message&)> shard_fn;

  /// Passive: primary checkpoints after this many processed requests
  /// (0 = checkpoint only for state transfer, never periodically).
  std::uint32_t checkpoint_every_requests = 0;

  /// Forwarded to the Consistent Time Service.
  ccs::DriftCompensation drift = ccs::DriftCompensation::kNone;
  Micros mean_delay_us = 0;
  double reference_gain = 0.0;

  /// Optional local stable storage.  When set, checkpoints are also
  /// persisted to the host's disk, enabling cold starts after a TOTAL
  /// failure (start_cold) with a monotone group clock.
  storage::StableStore* stable_store = nullptr;
  /// Persist a local checkpoint every N processed requests (0 = only when
  /// a checkpoint is taken/applied for other reasons).  Persisting waits
  /// for a moment when every shard is idle.
  std::uint32_t persist_every_requests = 0;

  /// How long a recovering replica waits for the checkpoint before
  /// re-issuing GET_STATE (covers "the replica serving the transfer
  /// crashed").  Tests shrink this to exercise the retry/reply races.
  Micros get_state_retry_us = 2'000'000;
};

struct ManagerStats {
  std::uint64_t requests_processed = 0;
  std::uint64_t requests_logged = 0;    // passive backup
  std::uint64_t requests_replayed = 0;  // passive failover
  std::uint64_t replies_sent = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoints_applied = 0;
  std::uint64_t checkpoints_persisted = 0;
  std::uint64_t promotions = 0;
  std::uint64_t state_transfers_served = 0;
  /// Checkpoints dropped (and, while recovering, re-requested) unapplied:
  /// the hash chain failed verification, or a state inside was malformed.
  std::uint64_t checkpoints_rejected = 0;
};

class ReplicaManager {
 public:
  ReplicaManager(sim::Simulator& sim, gcs::GcsEndpoint& gcs, clock::PhysicalClock& clk,
                 ManagerConfig cfg, ReplicaFactory factory);

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  ~ReplicaManager();

  /// Join the group as a fresh member (initial startup, empty state).
  void start();

  /// Join the group as a recovering member: multicast GET_STATE, adopt the
  /// special CCS round, apply the checkpoint, then start processing.
  /// `recovered` fires once the replica is fully integrated.  The
  /// continuation is move-only with destroy-on-drop semantics: if the
  /// manager is torn down mid-recovery the continuation is destroyed,
  /// never invoked, and never leaked.
  void start_recovering(UniqueFn<void()> recovered = nullptr);

  /// Cold start after a TOTAL group failure: restore the newest local
  /// checkpoint from stable storage (if any), join the group, and announce
  /// the restored state so peers with staler disks catch up.  The restored
  /// CTS state forces the group clock above every reading handed out
  /// before the outage.
  void start_cold();

  [[nodiscard]] bool is_primary() const { return primary_; }
  [[nodiscard]] bool recovered() const { return !recovering_; }
  [[nodiscard]] const ManagerStats& stats() const { return stats_; }
  [[nodiscard]] ccs::ConsistentTimeService& time_service() { return cts_; }
  /// The application instance of shard `i` (shard 0 by default).
  [[nodiscard]] Replica& app(std::uint32_t shard = 0) { return *shards_[shard].app; }
  [[nodiscard]] std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }
  [[nodiscard]] const ManagerConfig& config() const { return cfg_; }
  /// The hash-chained checkpoint history (newest last; see checkpoint_chain.hpp).
  [[nodiscard]] const std::vector<CheckpointHeader>& checkpoint_chain() const { return chain_; }

 private:
  struct PendingRequest {
    gcs::Message msg;
    std::uint64_t delivery_index = 0;
  };

  void send_get_state();
  void on_message(const gcs::Message& m);
  void on_view(const gcs::GroupView& v);
  void on_request(const gcs::Message& m);
  void on_get_state(const gcs::Message& m);
  void on_state(const gcs::Message& m);

  void pump(std::uint32_t shard);
  /// Pump `shard` from a fresh event (at most one in flight per shard).
  void schedule_pump(std::uint32_t shard);
  void process(std::uint32_t shard, PendingRequest req);
  void maybe_serve_barrier();
  [[nodiscard]] std::uint32_t shard_of(const gcs::Message& m) const;
  void serve_state_transfer(const gcs::Message& get_state);
  void take_periodic_checkpoint();
  /// Every message on the state connection (GET_STATE and the three kState
  /// streams, see doc/PROTOCOL.md §5) is addressed to this group.
  [[nodiscard]] gcs::Message state_message(gcs::MsgType type, ThreadId tag, MsgSeqNum seq) const;
  /// Build a chained checkpoint, multicast it on kState stream `tag` with
  /// `seq`, and count it.  Returns a copy of the payload if `keep_copy`.
  Bytes send_checkpoint(ThreadId tag, MsgSeqNum seq, bool keep_copy);
  /// Write a chained-checkpoint payload (one already built, sent or
  /// verified) to stable storage.
  void persist_locally(Bytes payload);
  void maybe_persist_after_request();
  [[nodiscard]] gcs::Message make_reply(const gcs::Message& request, std::uint32_t shard,
                                        Bytes reply) const;
  [[nodiscard]] bool should_process() const;
  [[nodiscard]] Bytes full_checkpoint() const;
  /// full_checkpoint() wrapped with the (freshly extended) header chain —
  /// the payload every kState message and local persist now carries.
  [[nodiscard]] Bytes chained_checkpoint();
  /// Decode + chain-verify an incoming kState payload.  Returns nullopt
  /// (and counts a rejection) unless every link recomputes and the final
  /// digest covers the shipped snapshot.
  std::optional<DecodedCheckpoint> verify_state_payload(std::span<const std::uint8_t> payload);
  void count_rejected_checkpoint();
  /// Restore shard i's app from states[i], all or nothing: on a CodecError
  /// every app is as it was, and the error propagates.
  void restore_apps(std::span<const Bytes> states);
  /// Apply a snapshot whose layout verify_state_payload() checked.  Throws
  /// CodecError, having changed nothing, if a state inside is malformed.
  void apply_full_checkpoint(std::span<const std::uint8_t> state);
  /// Adopt a verified checkpoint: apply its snapshot, continue its chain,
  /// and write `persist` (the payload it arrived in) to stable storage
  /// unless it is null.  Returns false, having changed nothing but the
  /// rejection count, if a state inside the snapshot is malformed.
  bool adopt_checkpoint(DecodedCheckpoint d, const SharedBytes* persist);
  /// Report the current checkpoint chain to the ordering oracle (no-op
  /// without one).  Called at every adoption/extension site.
  void note_chain();

  sim::Simulator& sim_;
  gcs::GcsEndpoint& gcs_;
  /// The node's lifecycle scope (owned by the TotemNode underneath the GCS
  /// endpoint).  Every timer and trampoline this manager schedules is
  /// registered here: a fail-stop crash cancels them wholesale, and the
  /// destructor cancels this incarnation's own events (the scope outlives
  /// the manager — restart_server replaces the manager while the node's
  /// Totem daemon persists).
  sim::TaskScope& scope_;
  ManagerConfig cfg_;
  ccs::ConsistentTimeService cts_;

  bool primary_ = false;
  bool recovering_ = false;
  bool clock_initialized_ = false;   // recovering: special round adopted
  bool saw_own_get_state_ = false;   // recovering: our GET_STATE was ordered
  MsgSeqNum recovery_epoch_ = 0;     // seq of our outstanding GET_STATE
  UniqueFn<void()> recovered_cb_;

  // The GET_STATE retry timer, cancelled on destruction/crash instead of
  // firing into a freed (or dead) manager.
  sim::Simulator::EventId get_state_timer_{};

  // Per-shard serialized request processing; shards run concurrently.
  // A kGetState entry acts as a barrier: the shard stalls on it until
  // every shard has reached its copy (global quiescence), the state
  // transfer is served, and the barriers are released together.
  struct Shard {
    std::unique_ptr<ReplicaContext> ctx;
    std::unique_ptr<Replica> app;
    std::deque<PendingRequest> queue;
    bool processing = false;
    bool at_barrier = false;
    // The pump trampoline through the event queue (at most one in flight
    // per shard: pending while sim_.scheduled(pump_event)), scope-owned
    // like every other node event.
    sim::Simulator::EventId pump_event{};
  };
  std::vector<Shard> shards_;
  std::uint64_t delivery_count_ = 0;   // requests delivered so far (total order)
  std::uint64_t processed_count_ = 0;  // requests fully processed here

  // Passive backup request log: (delivery index, request).
  std::deque<PendingRequest> log_;
  // Semi-active backups cache the replies they computed but did not send;
  // on promotion they are re-sent (the old primary may have died before
  // transmitting them).  The client's duplicate detection absorbs replies
  // that did make it out.
  std::deque<gcs::Message> reply_cache_;
  static constexpr std::size_t kReplyCacheSize = 32;
  std::uint32_t since_checkpoint_ = 0;
  // Hash-chained checkpoint history (newest last).  Extended whenever a
  // checkpoint is taken; adopted wholesale when one is applied, so the
  // serving replica's history continues at the recovered replica.
  std::vector<CheckpointHeader> chain_;
  std::uint64_t persist_low_water_ = 0;  // processed_count_ at last local persist

  ManagerStats stats_;
  obs::Recorder& rec_ = gcs_.recorder();
  obs::OrderingOracle* const orc_ = gcs_.oracle();
  obs::Counter& c_recoveries_started_ = rec_.counter("repl.recoveries_started");
  obs::Counter& c_recoveries_completed_ = rec_.counter("repl.recoveries_completed");
  obs::Counter& c_promotions_ = rec_.counter("repl.promotions");
  obs::Counter& c_checkpoints_taken_ = rec_.counter("repl.checkpoints_taken");
  obs::Counter& c_checkpoints_applied_ = rec_.counter("repl.checkpoints_applied");
  obs::Counter& c_checkpoints_rejected_ = rec_.counter("repl.checkpoints_rejected");
  obs::Counter& c_state_transfers_served_ = rec_.counter("repl.state_transfers_served");
};

}  // namespace cts::replication
