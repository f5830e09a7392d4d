#include "cts/consistent_time_service.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace cts::ccs {

const char* to_string(ClockCallType t) {
  switch (t) {
    case ClockCallType::kGettimeofday:
      return "gettimeofday";
    case ClockCallType::kTime:
      return "time";
    case ClockCallType::kFtime:
      return "ftime";
    case ClockCallType::kClockGettime:
      return "clock_gettime";
  }
  return "?";
}

ConsistentTimeService::ConsistentTimeService(sim::Simulator& sim, gcs::GcsEndpoint& gcs,
                                             clock::PhysicalClock& clk, CtsConfig cfg)
    : sim_(sim), gcs_(gcs), clock_(clk), cfg_(cfg), scope_(gcs.scope()) {
  // Paper initialization (Figure 2, lines 1-2): offset and round numbers
  // start at zero, so the first CCS message carries the raw physical
  // hardware clock value.
  my_clock_offset_ = 0;

  // In passive/semi-active styles a replica is a backup until the
  // replication infrastructure promotes it; in active replication the flag
  // is irrelevant (everyone competes).
  primary_ = (cfg_.style == ReplicationStyle::kActive);

  // The special-round handler exists from the start at every replica.
  handlers_[kSpecialThread].my_thread_id = kSpecialThread;

  gcs_.subscribe(cfg_.group, [this](const gcs::Message& m) {
    if (m.hdr.type == gcs::MsgType::kCcs && m.hdr.conn == cfg_.ccs_conn) {
      on_ccs_delivered(m);
    }
  });

  // Fail-stop: when the node's scope shuts down, abandon every in-flight
  // round — a dead replica answers no callers.  Registered per instance and
  // removed in the destructor, because crash/restart cycles rebuild the CTS
  // while the node's scope persists across the replacement.
  shutdown_hook_ = scope_.on_shutdown([this] { abandon_inflight_rounds(); });
}

ConsistentTimeService::~ConsistentTimeService() { scope_.remove_hook(shutdown_hook_); }

void ConsistentTimeService::abandon_inflight_rounds() {
  std::uint64_t frames = 0;
  for (auto& [t, h] : handlers_) {
    if (h.waiting && h.waiting.is_coroutine()) ++frames;
    // Dropping the continuation destroys a parked coroutine frame (and any
    // locals it holds) or discards the callback — never invokes either.
    h.waiting = RoundContinuation{};
  }
  recovery_done_ = nullptr;
  if (frames > 0) scope_.note_frames_destroyed(frames);
}

// --- Thread registration ----------------------------------------------------------

void ConsistentTimeService::register_thread(ThreadId t) {
  auto [it, fresh] = handlers_.try_emplace(t);
  if (!fresh) return;
  it->second.my_thread_id = t;
  // Drain CCS messages that arrived before the thread existed (paper 3.1:
  // my_common_input_buffer).
  auto cb = common_input_buffer_.find(t);
  if (cb != common_input_buffer_.end()) {
    for (auto& msg : cb->second) recv_into_handler(it->second, std::move(msg));
    common_input_buffer_.erase(cb);
  }
}

// --- The clock-related operation ----------------------------------------------------

Micros ConsistentTimeService::propose_local_clock(Micros physical) {
  // Paper Figure 2, line 4: local logical clock = physical + offset.
  Micros local = physical + my_clock_offset_;
  if (cfg_.drift == DriftCompensation::kReferenceBias && reference_ != nullptr) {
    // Section 3.3: add a small proportion of (reference − proposal) so the
    // group clock acquires a repeated bias toward drift-free real time.
    const Micros ref = reference_->read();
    local += static_cast<Micros>(cfg_.reference_gain * static_cast<double>(ref - local));
  }
  // Multi-group causality (Section 5): never propose at or below an
  // observed remote timestamp.  Applied LAST — a reference pulling the
  // proposal backwards must not undercut the floor.
  if (causal_floor_ != kNoTime && local <= causal_floor_) local = causal_floor_ + 1;
  return local;
}

bool ConsistentTimeService::start_round(ThreadId thread, ClockCallType call_type, DoneFn done) {
  return start_round_impl(thread, call_type, RoundContinuation{std::move(done)});
}

bool ConsistentTimeService::start_round_impl(ThreadId thread, ClockCallType call_type,
                                            RoundContinuation done) {
  register_thread(thread);  // idempotent; tolerates lazy registration
  CcsHandler& h = handlers_.at(thread);
  // The state-transfer special round is traced by its completion only: it
  // records no kCcsRoundStart or kCcsSendAvoided event.
  const bool traced = thread != kSpecialThread;
  if (h.waiting) {
    // Always-on guard (paper 3.1: clock-related operations within a thread
    // are sequential).  Proceeding would silently clobber the in-flight
    // round's DoneFn, stranding its caller forever.
    ++stats_.reentrant_rejected;
    ++c_reentrant_;
    rec_.event(obs::EventKind::kCcsReentrantCall, gcs_.node_id(), cfg_.replica, thread.value);
    CTS_ERROR() << "replica " << to_string(cfg_.replica) << ": clock-related operation started on "
                << to_string(thread) << " while round " << h.my_round_number
                << " is still in flight; call rejected";
    // A rejected coroutine resumes with kNoTime (through the scope, like a
    // completed round) rather than suspending forever; a rejected callback
    // is dropped without being run.
    if (done.is_coroutine()) done(kNoTime);
    return false;
  }

  // Figure 2, line 9: a new round begins.
  ++h.my_round_number;

  // Figure 2, lines 3-4.
  h.pc_at_round = clock_.read();
  h.proposed_at_round = propose_local_clock(h.pc_at_round);
  h.call_type = call_type;
  h.sent_this_round = false;
  h.waiting = std::move(done);
  if (traced) {
    rec_.event(obs::EventKind::kCcsRoundStart, gcs_.node_id(), cfg_.replica, thread.value,
                static_cast<std::int64_t>(h.my_round_number));
  }

  // Figure 2, lines 11-13: send only if nothing is buffered for this round.
  // Passive/semi-active backups never send (Section 3.3); if the primary
  // dies, set_primary() re-issues the proposal.
  if (h.my_input_buffer.empty()) {
    const bool may_send = cfg_.style == ReplicationStyle::kActive || primary_;
    if (may_send && !recovering_) send_proposal(h);
  } else {
    ++stats_.sends_avoided;
    ++c_avoided_;
    if (traced) {
      rec_.event(obs::EventKind::kCcsSendAvoided, gcs_.node_id(), cfg_.replica, thread.value,
                  static_cast<std::int64_t>(h.my_round_number));
    }
  }

  try_complete(h);
  return true;
}

void ConsistentTimeService::send_proposal(CcsHandler& h) {
  const bool special = h.my_thread_id == kSpecialThread;
  CcsPayload p;
  p.thread = h.my_thread_id;
  p.call_type = h.call_type;
  p.proposed_clock = h.proposed_at_round;
  p.special_round = special;

  gcs::Message m;
  m.hdr.type = gcs::MsgType::kCcs;
  m.hdr.src_grp = cfg_.group;
  m.hdr.dst_grp = cfg_.group;
  m.hdr.conn = cfg_.ccs_conn;
  m.hdr.tag = h.my_thread_id;
  m.hdr.seq = h.my_round_number;
  m.hdr.sender_replica = cfg_.replica;
  m.payload = p.encode();
  gcs_.send(std::move(m));
  h.sent_this_round = true;
  ++stats_.sends_initiated;
  ++c_sends_;
  if (orc_) {
    orc_->on_ccs_send(cfg_.group, cfg_.replica, h.my_thread_id, h.my_round_number,
                      h.proposed_at_round, special);
  }
}

// --- Delivery path --------------------------------------------------------------------

void ConsistentTimeService::on_ccs_delivered(const gcs::Message& m) {
  CcsPayload p;
  try {
    p = CcsPayload::decode(m.payload);
  } catch (const CodecError& e) {
    CTS_WARN() << "malformed CCS payload: " << e.what();
    return;
  }

  // Monotonicity guard, applied in the agreed delivery order so every
  // replica computes the same effective value.  With the paper's single
  // processing thread this never fires; with concurrent threads it
  // guarantees the group clock cannot move backwards.
  Micros effective = p.proposed_clock;
  if (last_group_clock_ != kNoTime && effective <= last_group_clock_) {
    effective = last_group_clock_ + 1;
  }
  if (cfg_.max_forward_jump_us > 0 && last_group_clock_ != kNoTime &&
      effective > last_group_clock_ + cfg_.max_forward_jump_us) {
    // Fast-forward guard: a wildly-ahead proposal (stepped hardware clock)
    // is clamped; the sender's offset re-derives against the clamped value
    // so the group clock resumes normal pace immediately.
    effective = last_group_clock_ + cfg_.max_forward_jump_us;
  }
  last_group_clock_ = effective;
  p.proposed_clock = effective;

  BufferedMsg b{p, m.hdr.seq, m.hdr.sender_replica, m.hdr.sender_node};
  if (p.special_round) {
    CcsHandler& sh = handlers_.at(kSpecialThread);
    if (!recovering_ && (sh.waiting || b.seq <= sh.last_seq_seen)) {
      // This replica ran run_special_round() and is blocked on the result
      // (or the message is a duplicate): the normal path handles it.
      recv_into_handler(sh, std::move(b));
    } else {
      adopt_special_round(sh, b);
    }
    return;
  }

  auto it = handlers_.find(m.hdr.tag);
  if (it == handlers_.end()) {
    // The thread that will perform this logical operation has not been
    // created yet at this (slow) replica: park the message in the common
    // input buffer (Figure 3, line 4).
    common_input_buffer_[m.hdr.tag].push_back(std::move(b));
    return;
  }
  recv_into_handler(it->second, std::move(b));
}

void ConsistentTimeService::recv_into_handler(CcsHandler& h, BufferedMsg msg) {
  // Figure 3, lines 5 & 10: duplicate detection based on msg_seq_num.
  if (msg.seq <= h.last_seq_seen) {
    ++stats_.duplicates_dropped;
    ++c_duplicates_;
    return;
  }
  h.last_seq_seen = msg.seq;
  h.my_input_buffer.push_back(std::move(msg));
  // Figure 3, lines 8-9: wake the blocked thread, if any.
  try_complete(h);
}

void ConsistentTimeService::adopt_special_round(CcsHandler& sh, const BufferedMsg& msg) {
  // Section 3.2: a replica that is not blocked on the special round — the
  // recovering replica, which does not compete, or a passive backup, which
  // never processes GET_STATE — adopts the delivered group clock directly,
  // aligning its offset and round numbering with the rest of the group.
  const Micros grp = msg.payload.proposed_clock;
  my_clock_offset_ = grp - clock_.read();
  sh.my_round_number = msg.seq;
  sh.last_seq_seen = msg.seq;
  ++stats_.special_rounds;
  if (orc_) {
    orc_->on_round_complete(cfg_.group, cfg_.replica, kSpecialThread, msg.seq, grp,
                            msg.sender_replica, /*special=*/true);
  }
  if (!recovering_) return;
  recovering_ = false;
  CTS_INFO() << "replica " << to_string(cfg_.replica) << " clock initialized from group clock "
             << grp << " (offset " << my_clock_offset_ << ")";
  if (recovery_done_) {
    auto done = std::move(recovery_done_);
    recovery_done_ = nullptr;
    done(grp);
  }
}

void ConsistentTimeService::try_complete(CcsHandler& h) {
  if (!h.waiting || h.my_input_buffer.empty()) return;

  // Figure 2, lines 15-17: take the first message; its clock value is the
  // consistent group clock value for the round.
  BufferedMsg msg = std::move(h.my_input_buffer.front());
  h.my_input_buffer.pop_front();

  const Micros grp = msg.payload.proposed_clock;

  // Figure 2, line 7: offset = group clock − this replica's physical
  // reading for the round.
  const Micros raw_offset = grp - h.pc_at_round;
  my_clock_offset_ = raw_offset;
  if (cfg_.drift == DriftCompensation::kMeanDelay) {
    // Section 3.3: compensate for the mean communication/processing delay.
    my_clock_offset_ += cfg_.mean_delay_us;
  } else if (cfg_.drift == DriftCompensation::kAdaptiveMeanDelay) {
    // Same idea, but the "mean delay" is estimated online.  The raw offset
    // shrinks each round by (true delay − current estimate), so integrating
    // the signed shrinkage steers the estimate to the true delay: when we
    // under-compensate the offset keeps falling and the estimate grows;
    // when we over-compensate it rises and the estimate backs off.
    if (prev_raw_offset_ != kNoTime) {
      const double delta = static_cast<double>(prev_raw_offset_ - raw_offset);
      estimated_round_delay_us_ += cfg_.adaptive_alpha * delta;
      if (estimated_round_delay_us_ < 0) estimated_round_delay_us_ = 0;
    }
    prev_raw_offset_ = raw_offset;
    my_clock_offset_ += static_cast<Micros>(estimated_round_delay_us_);
  }

  ++stats_.rounds_completed;
  ++c_rounds_;
  if (msg.payload.special_round) ++stats_.special_rounds;
  rec_.event(obs::EventKind::kCcsRoundComplete, gcs_.node_id(), cfg_.replica,
             static_cast<std::int64_t>(h.my_round_number),
             static_cast<std::int64_t>(msg.sender_replica.value), grp);
  if (msg.sender_replica == cfg_.replica) {
    ++stats_.rounds_won;
    ++c_wins_;
    // One kSynchronizerWin per (thread, round) across the whole group:
    // only the replica whose proposal was ordered first records it.
    rec_.event(obs::EventKind::kSynchronizerWin, gcs_.node_id(), cfg_.replica,
               static_cast<std::int64_t>(h.my_round_number),
               static_cast<std::int64_t>(h.my_thread_id.value));
  }
  // Observed skew of the agreed group clock vs drift-free real time
  // (epoch + simulated now).  Signed value in the event and gauge; the
  // histogram takes the magnitude (Histogram rejects negatives).
  const Micros skew = grp - (clock_.config().epoch_us + sim_.now());
  rec_.event(obs::EventKind::kSkewSample, gcs_.node_id(), cfg_.replica, skew,
             static_cast<std::int64_t>(h.my_round_number));
  rec_.metrics().set_gauge("cts.last_skew_us", skew);
  h_skew_.add(skew < 0 ? -skew : skew);

  if (observer_) {
    RoundResult rr;
    rr.round = h.my_round_number;
    rr.thread = h.my_thread_id;
    rr.call_type = h.call_type;
    rr.group_clock = grp;
    rr.physical_clock = h.pc_at_round;
    rr.offset_after = my_clock_offset_;
    rr.winner_replica = msg.sender_replica;
    rr.winner_node = msg.sender_node;
    rr.i_sent = h.sent_this_round;
    rr.special = msg.payload.special_round;
    observer_(rr);
  }

  if (orc_) {
    orc_->on_round_complete(cfg_.group, cfg_.replica, h.my_thread_id, msg.seq, grp,
                            msg.sender_replica, msg.payload.special_round);
  }

  auto done = std::move(h.waiting);
  done(grp);
}

// --- Primary/backup control ---------------------------------------------------------

void ConsistentTimeService::set_primary(bool primary) {
  const bool promoted = primary && !primary_;
  primary_ = primary;
  if (!promoted || cfg_.style == ReplicationStyle::kActive) return;
  // Section 3 / 3.3: if the old primary failed before its CCS message was
  // delivered anywhere, the new primary must send one for any round that
  // is still blocked.  If the message WAS delivered, the input buffer is
  // non-empty and nothing needs to be sent.
  for (auto& [t, h] : handlers_) {
    if (h.waiting && h.my_input_buffer.empty() && !h.sent_this_round) {
      send_proposal(h);
      ++stats_.proposals_resent;
      rec_.event(obs::EventKind::kProposalResent, gcs_.node_id(), cfg_.replica, t.value,
                 static_cast<std::int64_t>(h.my_round_number));
    }
  }
}

// --- Recovery -------------------------------------------------------------------------

void ConsistentTimeService::begin_recovery(DoneFn initialized) {
  recovering_ = true;
  recovery_done_ = std::move(initialized);
}

Bytes ConsistentTimeService::checkpoint() const {
  BytesWriter w;
  w.i64(last_group_clock_);
  w.i64(causal_floor_);
  w.u32(static_cast<std::uint32_t>(handlers_.size()));
  for (const auto& [t, h] : handlers_) {
    w.u32(t.value);
    w.u64(h.my_round_number);
    w.u64(h.last_seq_seen);
  }
  return std::move(w).take();
}

ConsistentTimeService::Snapshot ConsistentTimeService::decode_checkpoint(
    std::span<const std::uint8_t> state) {
  BytesReader r(state);
  Snapshot snap;
  snap.last_group_clock = r.i64();
  snap.causal_floor = r.i64();
  const auto n = r.u32();
  snap.threads.reserve(std::min<std::size_t>(n, r.remaining() / (4 + 8 + 8)));
  for (std::uint32_t i = 0; i < n; ++i) {
    Snapshot::Thread& t = snap.threads.emplace_back();
    t.id = ThreadId{r.u32()};
    t.round_number = r.u64();
    t.last_seq_seen = r.u64();
  }
  return snap;
}

void ConsistentTimeService::restore(const Snapshot& snap) {
  last_group_clock_ = snap.last_group_clock;
  causal_floor_ = snap.causal_floor;
  for (const Snapshot::Thread& t : snap.threads) {
    auto& h = handlers_[t.id];
    h.my_thread_id = t.id;
    h.my_round_number = t.round_number;
    h.last_seq_seen = std::max(h.last_seq_seen, t.last_seq_seen);
    // Rounds up to my_round_number were consumed by the replica that took
    // the checkpoint; drop any copies buffered here before the restore.
    std::erase_if(h.my_input_buffer,
                  [&](const BufferedMsg& b) { return b.seq <= h.my_round_number; });
  }
  for (auto& [t, buf] : common_input_buffer_) {
    auto it = handlers_.find(t);
    if (it == handlers_.end()) continue;
    std::erase_if(buf, [&](const BufferedMsg& b) { return b.seq <= it->second.my_round_number; });
  }
}

}  // namespace cts::ccs
