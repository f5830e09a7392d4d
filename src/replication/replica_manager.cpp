#include "replication/replica_manager.hpp"

#include <cassert>
#include <stdexcept>

#include "common/logging.hpp"

namespace cts::replication {

namespace {
/// Tag values for the kState streams (dedup is per (conn, type, tag)).
constexpr ThreadId kRecoveryStateTag{0};
constexpr ThreadId kPeriodicStateTag{1};
constexpr ThreadId kColdStateTag{2};

/// Stable-storage key for the local checkpoint.
const char* const kCheckpointKey = "replica-checkpoint";

/// The covered-request count a snapshot declares (its trailing u64),
/// without applying it.  Nullopt for a malformed snapshot, or one whose
/// shard count is not `shards` (the chain hash is no MAC: any sender can
/// recompute it over a snapshot of the wrong layout).
std::optional<std::uint64_t> peek_covered(std::span<const std::uint8_t> snapshot,
                                          std::size_t shards) {
  try {
    BytesReader r(snapshot);
    if (r.u32() != shards) return std::nullopt;
    for (std::size_t i = 0; i < shards; ++i) r.skip(r.u32());  // app states
    r.skip(r.u32());                                           // cts state
    return r.u64();
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

/// The constructor's preconditions, checked in every build type before
/// anything subscribes to the endpoint.
ManagerConfig checked(ManagerConfig cfg) {
  if (cfg.shards < 1) throw std::invalid_argument("ReplicaManager: shards must be >= 1");
  if (cfg.shards > 1 && cfg.style == ReplicationStyle::kPassive) {
    throw std::invalid_argument(
        "ReplicaManager: sharded processing is supported for active/semi-active replication");
  }
  return cfg;
}
}  // namespace

ReplicaManager::ReplicaManager(sim::Simulator& sim, gcs::GcsEndpoint& gcs,
                               clock::PhysicalClock& clk, ManagerConfig cfg,
                               ReplicaFactory factory)
    : sim_(sim),
      gcs_(gcs),
      scope_(gcs.scope()),
      cfg_(checked(std::move(cfg))),
      cts_(sim, gcs, clk, [this] {
        ccs::CtsConfig c;
        c.group = cfg_.group;
        c.ccs_conn = cfg_.ccs_conn;
        c.replica = cfg_.replica;
        c.style = cfg_.style;
        c.drift = cfg_.drift;
        c.mean_delay_us = cfg_.mean_delay_us;
        c.reference_gain = cfg_.reference_gain;
        return c;
      }()) {
  // Create the shards in index order — the paper's requirement that threads
  // be created in the same order at every replica.
  shards_.resize(cfg_.shards);
  for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
    const ThreadId thread{cfg_.processing_thread.value + i};
    shards_[i].ctx = std::make_unique<ReplicaContext>(
        ReplicaContext{sim, cts_, cfg_.group, cfg_.replica, thread, clk, &gcs_});
    shards_[i].app = factory(*shards_[i].ctx);
    cts_.register_thread(thread);
  }

  gcs_.subscribe(cfg_.group, [this](const gcs::Message& m) { on_message(m); });
  gcs_.subscribe_view(cfg_.group, [this](const gcs::GroupView& v) { on_view(v); });
}

// --- Lifecycle -----------------------------------------------------------------

ReplicaManager::~ReplicaManager() {
  // Self-referential timers (GET_STATE retry, pump trampolines) may still
  // be pending — e.g. Testbed::restart_server destroys the old manager
  // mid-simulation.  Cancel them through the node's scope, which outlives
  // the manager; cancellation consumes no sequence numbers, so surviving
  // events keep their positions in the deterministic schedule.
  scope_.cancel(get_state_timer_);
  for (auto& sh : shards_) scope_.cancel(sh.pump_event);
}

void ReplicaManager::start() {
  recovering_ = false;
  gcs_.join_group(cfg_.group, cfg_.replica);
}

void ReplicaManager::start_recovering(UniqueFn<void()> recovered) {
  recovering_ = true;
  clock_initialized_ = false;
  saw_own_get_state_ = false;
  recovered_cb_ = std::move(recovered);
  ++c_recoveries_started_;
  rec_.event(obs::EventKind::kRecoveryStart, gcs_.node_id(), cfg_.replica);
  cts_.begin_recovery([this](Micros) { clock_initialized_ = true; });

  // Evict our dead predecessor incarnation from the group view.  If the
  // host rebooted faster than the ring's token-loss detection, the Totem
  // membership never changed, so the old (node, replica) entry is still a
  // member everywhere — a ghost that would keep a dead primary "elected"
  // and wedge the group.  We are its successor on this host, so we know it
  // is gone; announce the departure through the ordered stream.
  gcs_.leave_group(cfg_.group, cfg_.replica);

  // NOTE: the replica does NOT join the group yet — it becomes a member
  // (and primary-eligible) only once its state is initialized.  It still
  // observes the ordered stream, which is how it queues the requests it
  // must process after the checkpoint.
  send_get_state();
}

void ReplicaManager::send_get_state() {
  // A (re-)issued GET_STATE supersedes any previous recovery epoch.  The
  // checkpoint the new epoch produces is taken at a quiescent point AFTER
  // everything ordered before the new GET_STATE — including the requests
  // queued since the OLD GET_STATE was ordered.  Replaying those from the
  // queue on top of the new snapshot would apply them twice, so drop them
  // and re-arm the queue discipline on the new epoch.  (On the first issue
  // the queues are empty and this is a no-op.)
  saw_own_get_state_ = false;
  for (auto& sh : shards_) sh.queue.clear();

  // Simulated time is strictly monotone across this replica's recoveries,
  // so it serves as a unique recovery-epoch number.
  recovery_epoch_ = static_cast<MsgSeqNum>(sim_.now()) + 1;
  if (orc_) orc_->on_recovery_epoch(cfg_.group, cfg_.replica, recovery_epoch_);
  gcs_.send(state_message(gcs::MsgType::kGetState, kRecoveryStateTag, recovery_epoch_));

  // Re-issues can overlap an armed retry (e.g. a checkpoint raced clock
  // initialization): drop the stale timer first — it would only bail on its
  // epoch check anyway, and cancellation consumes no sequence numbers.
  scope_.cancel(get_state_timer_);
  get_state_timer_ = scope_.after(cfg_.get_state_retry_us, [this, epoch = recovery_epoch_] {
    if (recovering_ && recovery_epoch_ == epoch) {
      CTS_WARN() << "replica " << to_string(cfg_.replica)
                 << " state transfer timed out; re-issuing GET_STATE";
      send_get_state();
    }
  });
}

void ReplicaManager::start_cold() {
  recovering_ = false;
  if (cfg_.stable_store != nullptr) {
    if (auto state = cfg_.stable_store->read(kCheckpointKey)) {
      // Disk contents survive crashes but not corruption: the persisted
      // payload carries its header chain, so a damaged checkpoint is
      // detected and ignored instead of booting the replica into garbage.
      if (auto d = verify_state_payload(*state);
          d && adopt_checkpoint(std::move(*d), /*persist=*/nullptr)) {
        delivery_count_ = processed_count_;
        CTS_INFO() << "replica " << to_string(cfg_.replica) << " cold-started from disk ("
                   << processed_count_ << " requests covered)";
      } else {
        CTS_WARN() << "replica " << to_string(cfg_.replica)
                   << " ignoring corrupt on-disk checkpoint";
      }
    }
  }
  gcs_.join_group(cfg_.group, cfg_.replica);
  // Announce the restored state: peers whose disks are staler adopt it.
  // (Deterministic processing means equal covered-counts imply equal
  // state, so the announcement with the highest count wins everywhere.)
  // The seq lets dedup keep the freshest announcement.
  gcs::Message m = state_message(gcs::MsgType::kState, kColdStateTag, processed_count_ + 1);
  m.payload = chained_checkpoint();
  gcs_.send(std::move(m));
}

gcs::Message ReplicaManager::state_message(gcs::MsgType type, ThreadId tag, MsgSeqNum seq) const {
  gcs::Message m;
  m.hdr.type = type;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = cfg_.group;
  m.hdr.conn = cfg_.state_conn;
  m.hdr.tag = tag;
  m.hdr.seq = seq;
  m.hdr.sender_replica = cfg_.replica;
  return m;
}

// --- Message routing ---------------------------------------------------------------

void ReplicaManager::on_message(const gcs::Message& m) {
  switch (m.hdr.type) {
    case gcs::MsgType::kUserRequest:
      on_request(m);
      break;
    case gcs::MsgType::kGetState:
      on_get_state(m);
      break;
    case gcs::MsgType::kState:
      on_state(m);
      break;
    default:
      break;  // kCcs is consumed by the ConsistentTimeService
  }
}

void ReplicaManager::on_view(const gcs::GroupView& v) {
  const gcs::GroupMember me{gcs_.node_id(), cfg_.replica};
  const bool now_primary = !v.members.empty() && v.members.front() == me;
  if (now_primary && !primary_) {
    ++stats_.promotions;
    primary_ = true;
    CTS_INFO() << "replica " << to_string(cfg_.replica) << " promoted to primary";
    ++c_promotions_;
    rec_.event(obs::EventKind::kFailover, gcs_.node_id(), cfg_.replica,
               static_cast<std::int64_t>(stats_.promotions));
    cts_.set_primary(true);
    if (cfg_.style == ReplicationStyle::kSemiActive) {
      // Re-send the replies the old primary may never have transmitted;
      // the client's duplicate detection drops any it already received.
      for (auto& m : reply_cache_) {
        gcs_.send(m);
        ++stats_.replies_sent;
      }
      reply_cache_.clear();
    }
    if (cfg_.style == ReplicationStyle::kPassive && !log_.empty()) {
      // Replay the logged requests the old primary never checkpointed.
      // Clock reads during replay consume the CCS messages the old primary
      // already distributed, so the group clock stays continuous.
      auto& shard = shards_[0];  // passive is single-sharded
      for (auto it = log_.rbegin(); it != log_.rend(); ++it) shard.queue.push_front(*it);
      stats_.requests_replayed += log_.size();
      log_.clear();
      pump(0);
    }
  } else if (!now_primary && primary_) {
    primary_ = false;
    cts_.set_primary(false);
  }
}

// --- Requests --------------------------------------------------------------------------

bool ReplicaManager::should_process() const {
  if (recovering_) return false;
  if (cfg_.style == ReplicationStyle::kPassive) return primary_;
  return true;  // active & semi-active: everyone processes
}

std::uint32_t ReplicaManager::shard_of(const gcs::Message& m) const {
  if (shards_.size() == 1) return 0;
  if (cfg_.shard_fn) return cfg_.shard_fn(m) % static_cast<std::uint32_t>(shards_.size());
  return 0;
}

void ReplicaManager::on_request(const gcs::Message& m) {
  if (recovering_) {
    // Requests ordered before our GET_STATE are covered by the checkpoint;
    // queue only what comes after.
    if (saw_own_get_state_) {
      shards_[shard_of(m)].queue.push_back(PendingRequest{m, 0});
    }
    return;
  }
  ++delivery_count_;
  if (should_process()) {
    const auto s = shard_of(m);
    shards_[s].queue.push_back(PendingRequest{m, delivery_count_});
    pump(s);
  } else if (cfg_.style == ReplicationStyle::kPassive) {
    log_.push_back(PendingRequest{m, delivery_count_});
    ++stats_.requests_logged;
  }
}

void ReplicaManager::pump(std::uint32_t shard) {
  Shard& sh = shards_[shard];
  if (sh.processing || sh.at_barrier || sh.queue.empty()) return;

  if (sh.queue.front().msg.hdr.type == gcs::MsgType::kGetState) {
    // Barrier: this shard is quiescent for the pending state transfer.
    sh.at_barrier = true;
    maybe_serve_barrier();
    return;
  }

  sh.processing = true;
  PendingRequest req = std::move(sh.queue.front());
  sh.queue.pop_front();
  process(shard, std::move(req));
}

void ReplicaManager::process(std::uint32_t shard, PendingRequest req) {
  const gcs::Message request = req.msg;
  shards_[shard].app->handle_request(request.payload, [this, shard, request](Bytes reply) {
    ++stats_.requests_processed;
    ++processed_count_;
    ++since_checkpoint_;
    gcs::Message m = make_reply(request, shard, std::move(reply));
    if (cfg_.style == ReplicationStyle::kActive || primary_) {
      gcs_.send(std::move(m));
      ++stats_.replies_sent;
    } else if (cfg_.style == ReplicationStyle::kSemiActive) {
      // Remember the reply we computed but did not transmit, in case the
      // primary dies before its copy reaches the client.
      reply_cache_.push_back(std::move(m));
      if (reply_cache_.size() > kReplyCacheSize) reply_cache_.pop_front();
    }
    if (cfg_.style == ReplicationStyle::kPassive && primary_ &&
        cfg_.checkpoint_every_requests > 0 &&
        since_checkpoint_ >= cfg_.checkpoint_every_requests) {
      take_periodic_checkpoint();
    }
    shards_[shard].processing = false;
    maybe_persist_after_request();
    schedule_pump(shard);
  });
}

void ReplicaManager::schedule_pump(std::uint32_t shard) {
  // Trampoline through the event queue so long synchronous bursts do not
  // recurse.  The event is scope-owned: a crash (or manager destruction)
  // cancels it instead of pumping a dead replica.
  Shard& sh = shards_[shard];
  if (sim_.scheduled(sh.pump_event)) return;
  sh.pump_event = scope_.after(0, [this, shard] { pump(shard); });
}

gcs::Message ReplicaManager::make_reply(const gcs::Message& request, std::uint32_t shard,
                                        Bytes reply) const {
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kUserReply;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = request.hdr.src_grp;
  m.hdr.conn = request.hdr.conn;
  // GCS drops a message whose seq is not above the last one delivered on
  // its (conn, type, tag) stream, and shards finish out of request order.
  // Each shard therefore replies on its own tag (request tag + shard), so
  // a faster shard's later reply cannot shadow a slower shard's earlier
  // one.  Shard 0 keeps the request's tag.
  m.hdr.tag = ThreadId{request.hdr.tag.value + shard};
  m.hdr.seq = request.hdr.seq;
  m.hdr.sender_replica = cfg_.replica;
  m.payload = std::move(reply);
  return m;
}

// --- State transfer -----------------------------------------------------------------------

Bytes ReplicaManager::full_checkpoint() const {
  BytesWriter w;
  w.u32(static_cast<std::uint32_t>(shards_.size()));
  for (const auto& sh : shards_) w.bytes(sh.app->checkpoint());
  w.bytes(cts_.checkpoint());
  w.u64(processed_count_);  // requests covered by this checkpoint
  return std::move(w).take();
}

Bytes ReplicaManager::chained_checkpoint() {
  const Bytes snapshot = full_checkpoint();
  extend_chain(chain_, processed_count_, snapshot);
  note_chain();
  return encode_chained_checkpoint(snapshot, chain_);
}

std::optional<DecodedCheckpoint> ReplicaManager::verify_state_payload(
    std::span<const std::uint8_t> payload) {
  auto d = decode_chained_checkpoint(payload);
  bool ok = d.has_value() && verify_chained_checkpoint(*d);
  if (ok) {
    // The newest link must describe THIS snapshot's covered count, or the
    // chain was grafted onto a different snapshot.
    ok = peek_covered(d->snapshot, shards_.size()) == d->headers.back().upto;
  }
  if (!ok) {
    count_rejected_checkpoint();
    return std::nullopt;
  }
  return d;
}

void ReplicaManager::count_rejected_checkpoint() {
  ++stats_.checkpoints_rejected;
  ++c_checkpoints_rejected_;
}

void ReplicaManager::restore_apps(std::span<const Bytes> states) {
  // Each app restores all or nothing.  With several shards, a later shard's
  // malformed state must also undo the shards already restored, so each is
  // saved first; a single shard (every passive replica) saves nothing.
  std::vector<Bytes> saved;
  std::size_t i = 0;
  try {
    for (; i < shards_.size(); ++i) {
      if (shards_.size() > 1) saved.push_back(shards_[i].app->checkpoint());
      shards_[i].app->restore(states[i]);
    }
  } catch (const CodecError&) {
    for (std::size_t j = 0; j < i; ++j) shards_[j].app->restore(saved[j]);
    throw;
  }
}

void ReplicaManager::apply_full_checkpoint(std::span<const std::uint8_t> state) {
  // verify_state_payload() checked the layout: the shard count and every
  // length.  What can still be malformed is an app or CTS state inside, so
  // decode the CTS state and restore the apps before anything else
  // changes; a CodecError from either leaves this replica as it was.
  BytesReader r(state);
  r.u32();
  std::vector<Bytes> app_states;
  app_states.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) app_states.push_back(r.bytes());
  const auto cts_state = ccs::ConsistentTimeService::decode_checkpoint(r.bytes());
  const std::uint64_t covered = r.u64();
  restore_apps(app_states);
  cts_.restore(cts_state);
  processed_count_ = covered;
  ++stats_.checkpoints_applied;
  ++c_checkpoints_applied_;
  rec_.event(obs::EventKind::kCheckpointApplied, gcs_.node_id(), cfg_.replica,
             static_cast<std::int64_t>(covered));

  if (recovering_) {
    // Renumber the queued requests with group-consistent delivery indexes:
    // everything queued was ordered after GET_STATE, i.e. after `covered`.
    // (Re-deliver in a merged pass to keep per-shard FIFO order intact —
    // queues were filled in delivery order already, so only the indexes
    // need fixing.)
    delivery_count_ = covered;
    for (auto& sh : shards_) {
      for (auto& q : sh.queue) q.delivery_index = ++delivery_count_;
    }
  } else {
    // Passive backup: drop logged requests now covered by the checkpoint.
    std::erase_if(log_, [&](const PendingRequest& p) { return p.delivery_index <= covered; });
    since_checkpoint_ = 0;
  }
}

void ReplicaManager::on_get_state(const gcs::Message& m) {
  if (recovering_) {
    if (m.hdr.sender_replica == cfg_.replica && m.hdr.seq == recovery_epoch_) {
      saw_own_get_state_ = true;  // requests after this point must be queued
    }
    return;
  }
  // Passive backups do not serve state transfer (they may be stale); the
  // primary — and, for active/semi-active, every replica — handles
  // GET_STATE at a quiescent point: the barrier entry stalls each shard
  // until all shards drained everything ordered before it.
  if (!should_process()) return;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s].queue.push_back(PendingRequest{m, 0});
    pump(s);
  }
}

void ReplicaManager::maybe_serve_barrier() {
  for (const auto& sh : shards_) {
    if (!sh.at_barrier) return;  // someone is still draining
  }
  // Global quiescence: all shards stalled on the same (totally ordered)
  // GET_STATE.  Serve it once, then release every shard.
  const gcs::Message get_state = shards_[0].queue.front().msg;
  serve_state_transfer(get_state);
}

void ReplicaManager::serve_state_transfer(const gcs::Message& get_state) {
  ++stats_.state_transfers_served;
  ++c_state_transfers_served_;
  rec_.event(obs::EventKind::kStateTransfer, gcs_.node_id(), cfg_.replica,
             static_cast<std::int64_t>(log_.size()));
  // Section 3.2: a special round of consistent clock synchronization is
  // taken immediately before the checkpoint, so the recovering replica can
  // initialize its offset from the group clock.
  cts_.run_special_round([this, epoch = get_state.hdr.seq](Micros) {
    // The seq pairs the checkpoint with its GET_STATE.
    send_checkpoint(kRecoveryStateTag, epoch, /*keep_copy=*/false);
    // Release the barriers.
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      assert(sh.at_barrier && !sh.queue.empty());
      sh.queue.pop_front();
      sh.at_barrier = false;
      schedule_pump(s);
    }
  });
}

void ReplicaManager::persist_locally(Bytes payload) {
  if (cfg_.stable_store == nullptr) return;
  cfg_.stable_store->write(kCheckpointKey, std::move(payload));
  persist_low_water_ = processed_count_;
  ++stats_.checkpoints_persisted;
}

void ReplicaManager::maybe_persist_after_request() {
  if (cfg_.stable_store == nullptr || cfg_.persist_every_requests == 0) return;
  if (processed_count_ < persist_low_water_ + cfg_.persist_every_requests) return;
  // Persist only from a globally quiescent instant so the snapshot is not
  // torn across concurrently-processing shards.
  for (const auto& sh : shards_) {
    if (sh.processing) return;  // try again after the next completion
  }
  persist_locally(chained_checkpoint());
}

Bytes ReplicaManager::send_checkpoint(ThreadId tag, MsgSeqNum seq, bool keep_copy) {
  gcs::Message m = state_message(gcs::MsgType::kState, tag, seq);
  m.payload = chained_checkpoint();
  const auto ckpt_bytes = m.payload.size();
  Bytes copy = keep_copy ? m.payload.to_bytes() : Bytes{};
  gcs_.send(std::move(m));
  ++stats_.checkpoints_taken;
  ++c_checkpoints_taken_;
  rec_.event(obs::EventKind::kCheckpointTaken, gcs_.node_id(), cfg_.replica,
             static_cast<std::int64_t>(ckpt_bytes));
  return copy;
}

void ReplicaManager::take_periodic_checkpoint() {
  // The seq is the covered-request count, not a per-replica counter: GCS
  // drops a kState whose seq is not above the last one delivered on this
  // stream, and the stream outlives any one primary.  One primary's seqs
  // rise because it processes at least one request between checkpoints.  A
  // successor (a promoted backup, or a restarted replica that is first in
  // the view again) starts from the checkpoint it applied last and
  // processes at least one more request before its first send, so that
  // send covers strictly more requests than the checkpoint it applied.
  // Persist the bytes being sent instead of building the checkpoint again.
  Bytes persisted =
      send_checkpoint(kPeriodicStateTag, processed_count_, cfg_.stable_store != nullptr);
  since_checkpoint_ = 0;
  persist_locally(std::move(persisted));
}

void ReplicaManager::on_state(const gcs::Message& m) {
  if (recovering_) {
    // Dedupe against the recovery epoch: a reply paired with a GET_STATE we
    // have since superseded (its reply crossed our retry in flight) must be
    // dropped, not applied — the queued requests only line up with the
    // checkpoint of the CURRENT epoch.
    if (m.hdr.tag != kRecoveryStateTag || m.hdr.seq != recovery_epoch_) return;
    if (!clock_initialized_) {
      // The special CCS round is ordered before the checkpoint, so this
      // cannot happen unless the serving replica misbehaved.
      CTS_WARN() << "checkpoint arrived before clock initialization; re-requesting";
      send_get_state();
      return;
    }
    auto d = verify_state_payload(m.payload);
    if (!d || !adopt_checkpoint(std::move(*d), &m.payload)) {
      // A broken hash chain or a malformed state: nothing was adopted; ask again.
      CTS_WARN() << "replica " << to_string(cfg_.replica)
                 << " rejected checkpoint; re-requesting";
      send_get_state();
      return;
    }
    recovering_ = false;
    gcs_.join_group(cfg_.group, cfg_.replica);  // now a full member
    std::size_t queued = 0;
    for (auto& sh : shards_) queued += sh.queue.size();
    CTS_INFO() << "replica " << to_string(cfg_.replica) << " recovered (" << queued
               << " queued requests to drain)";
    ++c_recoveries_completed_;
    rec_.event(obs::EventKind::kRecoveryComplete, gcs_.node_id(), cfg_.replica,
               static_cast<std::int64_t>(queued));
    if (recovered_cb_) {
      auto cb = std::move(recovered_cb_);
      recovered_cb_ = nullptr;
      cb();
    }
    for (std::uint32_t s = 0; s < shards_.size(); ++s) pump(s);
    return;
  }
  auto d = verify_state_payload(m.payload);
  if (!d) {
    CTS_WARN() << "replica " << to_string(cfg_.replica)
               << " ignoring checkpoint with broken hash chain";
    return;
  }
  if (m.hdr.tag == kColdStateTag) {
    // A cold-start announcement: adopt it only if it is strictly fresher
    // than our own restored state (equal counts imply equal state).
    if (d->headers.back().upto > processed_count_ &&
        adopt_checkpoint(std::move(*d), &m.payload)) {
      delivery_count_ = processed_count_;
    }
    return;
  }
  // A state transfer served for an epoch we have already moved past (e.g.
  // the late reply to a superseded GET_STATE, delivered after this replica
  // finished recovering) must not roll a fresher replica backward.
  if (d->headers.back().upto < processed_count_) return;
  // Existing replicas: the primary ignores its own checkpoints; passive
  // backups apply both periodic and recovery checkpoints to stay fresh.
  if (cfg_.style == ReplicationStyle::kPassive && !primary_) {
    adopt_checkpoint(std::move(*d), &m.payload);
  }
}

bool ReplicaManager::adopt_checkpoint(DecodedCheckpoint d, const SharedBytes* persist) {
  try {
    apply_full_checkpoint(d.snapshot);
  } catch (const CodecError& e) {
    // The chain verified, but the chain hash is no MAC: a state inside the
    // snapshot is malformed.  Nothing was applied, chained or persisted.
    count_rejected_checkpoint();
    CTS_WARN() << "replica " << to_string(cfg_.replica)
               << " rejected checkpoint with malformed state: " << e.what();
    return false;
  }
  chain_ = std::move(d.headers);
  note_chain();
  if (persist != nullptr) persist_locally(persist->to_bytes());
  return true;
}

void ReplicaManager::note_chain() {
  if (!orc_) return;
  std::vector<obs::CheckpointLink> links;
  links.reserve(chain_.size());
  for (const auto& h : chain_) links.push_back({h.upto, h.digest, h.parent, h.link});
  orc_->on_checkpoint_chain(cfg_.group, cfg_.replica, links, /*verified=*/true);
}

}  // namespace cts::replication
