#include "totem/totem.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace cts::totem {

namespace {
// Protocol timeouts (us); doc/PROTOCOL.md §2 lists them.
/// Token-loss timeout: entering Gather when no token arrives.
constexpr Micros kTokenLossTimeoutUs = 5'000;
/// Previous holder retransmits the token if it sees no progress.
constexpr Micros kTokenRetransTimeoutUs = 1'200;
/// Time a node waits collecting Join messages before forming a ring.
constexpr Micros kGatherTimeoutUs = 1'500;
/// Non-representative waits this long for a Commit before regathering.
constexpr Micros kCommitTimeoutUs = 3'000;
/// Window for old-ring message recovery after Commit.
constexpr Micros kRecoveryTimeoutUs = 800;
/// Processing time before forwarding the token.  Together with the
/// per-packet network latency this puts the per-hop token-passing time near
/// the ~51us the paper's testbed measured ([20]).
constexpr Micros kTokenHoldUs = 10;
/// A node stuck in a NON-primary component periodically re-runs the
/// membership protocol, broadcasting a Join that the rest of the universe
/// will hear once a partition heals — so partitions merge even when no
/// application traffic flows.
constexpr Micros kSeekIntervalUs = 50'000;

constexpr int kMaxTokenRetransAttempts = 5;
constexpr std::uint32_t kPacketMagic = 0x544f544d;  // "TOTM"
constexpr std::size_t kEnvelopeSize = 8;            // [magic u32][checksum u32]
constexpr std::size_t kEnvelopeChecksumOffset = 4;

// Scatter-gather sealing: the envelope and the body share one buffer.  An
// encoder reserves the final packet size, writes the [magic][checksum=0]
// envelope, appends its body fields directly behind it, and finish_sealed
// patches the checksum in place — no separately-allocated body buffer and
// no envelope-prepend copy.
BytesWriter begin_sealed(std::size_t body_size) {
  BytesWriter w;
  w.reserve(kEnvelopeSize + body_size);
  w.u32(kPacketMagic);
  w.u32(0);  // checksum placeholder, patched once the body is in place
  return w;
}

Bytes finish_sealed(BytesWriter&& w) {
  w.patch_u32(kEnvelopeChecksumOffset, envelope_checksum(w.data()));
  return std::move(w).take();
}
}  // namespace

std::uint32_t envelope_checksum(std::span<const std::uint8_t> packet) {
  return word_hash32(packet.subspan(std::min(packet.size(), kEnvelopeSize)));
}

TotemNode::TotemNode(sim::Simulator& sim, net::Network& net, NodeId id, TotemConfig cfg)
    : sim_(sim), net_(net), id_(id), cfg_(std::move(cfg)), scope_(sim) {
  assert(std::is_sorted(cfg_.universe.begin(), cfg_.universe.end()));
  // In-flight packets to this host belong to its lifecycle scope, so a
  // fail-stop shutdown cancels them mid-flight.
  net_.bind_scope(id_, &scope_);
  // Fail-stop: shutting the scope down takes the daemon off the ring first
  // (hooks run before the timer sweep), then cancels everything the host
  // scheduled, this daemon's timers included.
  scope_.on_shutdown([this] { go_down(); });
}

TotemNode::~TotemNode() { net_.bind_scope(id_, nullptr); }

// --- Wire formats ----------------------------------------------------------

bool TotemNode::unseal(const SharedBytes& packet, BytesReader& out_reader) {
  // A datagram shorter than the envelope cannot be a Totem packet; reject
  // it before touching any field so truncated junk is dropped, not parsed.
  if (packet.size() < kEnvelopeSize) return false;
  if (load_u32le(packet.data()) != kPacketMagic) return false;
  if (load_u32le(packet.data() + kEnvelopeChecksumOffset) != envelope_checksum(packet.span())) {
    return false;
  }
  out_reader = BytesReader(
      std::span<const std::uint8_t>(packet.data() + kEnvelopeSize, packet.size() - kEnvelopeSize));
  return true;
}

Bytes TotemNode::encode_token(const Token& t) {
  BytesWriter w = begin_sealed(45 + t.rtr.size() * 8);
  w.u8(static_cast<std::uint8_t>(MsgType::kToken));
  w.u64(t.ring_id);
  w.u64(t.token_seq);
  w.u64(t.seq);
  w.u64(t.aru);
  w.u32(t.aru_setter.value);
  w.u32(t.fcc);
  w.u32(static_cast<std::uint32_t>(t.rtr.size()));
  for (auto s : t.rtr) w.u64(s);
  return finish_sealed(std::move(w));
}

Bytes TotemNode::encode_mcast(const Mcast& m) {
  BytesWriter w = begin_sealed(27 + m.payload.size());
  w.u8(static_cast<std::uint8_t>(MsgType::kMcast));
  w.u64(m.ring_id);
  w.u64(m.seq);
  w.u32(m.sender.value);
  w.boolean(m.recovery);
  w.u8(static_cast<std::uint8_t>(m.delivery));
  w.bytes(m.payload.span());
  return finish_sealed(std::move(w));
}

Bytes TotemNode::encode_batch(std::span<const Mcast> msgs, RingId ring_id, bool recovery) {
  // One envelope seals the whole visit's worth of messages; payload bytes
  // are gathered straight from each queued buffer into the frame.
  std::size_t body = 14;  // type u8 + ring u64 + recovery u8 + count u32
  for (const auto& m : msgs) body += 17 + m.payload.size();
  BytesWriter w = begin_sealed(body);
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.u64(ring_id);
  w.boolean(recovery);
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const auto& m : msgs) {
    w.u64(m.seq);
    w.u32(m.sender.value);
    w.u8(static_cast<std::uint8_t>(m.delivery));
    w.bytes(m.payload.span());
  }
  return finish_sealed(std::move(w));
}

Bytes TotemNode::encode_join(const Join& j) {
  BytesWriter w = begin_sealed(29 + j.perceived.size() * 4);
  w.u8(static_cast<std::uint8_t>(MsgType::kJoin));
  w.u32(j.sender.value);
  w.u32(static_cast<std::uint32_t>(j.perceived.size()));
  for (auto n : j.perceived) w.u32(n.value);
  w.u64(j.old_ring_id);
  w.u64(j.my_aru);
  w.u64(j.high_seq);
  return finish_sealed(std::move(w));
}

Bytes TotemNode::encode_commit(const Commit& c) {
  BytesWriter w = begin_sealed(13 + c.members.size() * 28);
  w.u8(static_cast<std::uint8_t>(MsgType::kCommit));
  w.u64(c.new_ring_id);
  w.u32(static_cast<std::uint32_t>(c.members.size()));
  for (const auto& m : c.members) {
    w.u32(m.node.value);
    w.u64(m.old_ring_id);
    w.u64(m.aru);
    w.u64(m.high_seq);
  }
  return finish_sealed(std::move(w));
}

// --- Lifecycle ---------------------------------------------------------------

void TotemNode::start() {
  assert(state_ == State::kDown);
  net_.attach(id_, [this](NodeId src, const SharedBytes& data) { on_packet(src, data); });
  state_ = State::kGather;
  enter_gather("boot");
}

void TotemNode::go_down() {
  state_ = State::kDown;
  net_.set_down(id_, true);
  clear_ring_state();
  joins_.clear();
  perceived_.clear();
  send_queue_.clear();
  view_ = View{};
}

void TotemNode::clear_ring_state() {
  store_.clear();
  my_aru_ = 0;
  delivered_up_to_ = 0;
  discarded_up_to_ = 0;
  last_token_seq_ = 0;
  token_aru_prev_ = 0;
  token_aru_last_ = 0;
  last_sent_on_token_ = 0;
  last_sent_token_.reset();
}

void TotemNode::restart() {
  assert(state_ == State::kDown);
  net_.set_down(id_, false);
  state_ = State::kGather;
  enter_gather("restart");
}

std::uint64_t TotemNode::multicast(Bytes payload, DeliveryClass dc) {
  const std::uint64_t h = next_handle_++;
  send_queue_.push_back(Queued{h, dc, std::move(payload)});
  return h;
}

bool TotemNode::cancel(std::uint64_t handle) {
  for (auto it = send_queue_.begin(); it != send_queue_.end(); ++it) {
    if (it->handle == handle) {
      send_queue_.erase(it);
      ++stats_.msgs_cancelled;
      return true;
    }
  }
  return false;
}

// --- Timer plumbing -----------------------------------------------------------

void TotemNode::reset_token_loss_timer() {
  // Fires on every token receipt: re-key the live timer in place instead
  // of a cancel+insert pair; a stale id (fired or cancelled) refuses.
  if (scope_.reschedule(token_loss_timer_, sim_.now() + kTokenLossTimeoutUs)) return;
  token_loss_timer_ = scope_.after(kTokenLossTimeoutUs, [this] {
    if (state_ == State::kOperational) enter_gather("token loss");
  });
}

// --- Packet dispatch -----------------------------------------------------------

void TotemNode::on_packet(NodeId src, const SharedBytes& data) {
  if (state_ == State::kDown) return;
  BytesReader r(std::span<const std::uint8_t>{});
  if (!unseal(data, r)) {
    ++stats_.packets_rejected_envelope;
    CTS_DEBUG() << to_string(id_) << " dropped non-Totem/corrupt packet from "
                << to_string(src);
    return;
  }
  try {
    // Length validation is exact: after the last field of a message the
    // reader must sit on the end of the body.  A well-formed prefix with
    // trailing garbage is rejected BEFORE its handler runs, the same as a
    // truncated packet — otherwise padding survives the checksum (which
    // covers the whole body) and two nodes could disagree about what a
    // packet "is".
    const auto expect_end = [&r](const char* what) {
      if (!r.done()) throw CodecError(std::string("trailing garbage after ") + what);
    };
    const auto delivery_class = [](std::uint8_t v) {
      if (v > static_cast<std::uint8_t>(DeliveryClass::kSafe)) {
        throw CodecError("bad delivery class");
      }
      return static_cast<DeliveryClass>(v);
    };
    switch (r.u8()) {
      case static_cast<std::uint8_t>(MsgType::kToken): {
        Token t;
        t.ring_id = r.u64();
        t.token_seq = r.u64();
        t.seq = r.u64();
        t.aru = r.u64();
        t.aru_setter = NodeId{r.u32()};
        t.fcc = r.u32();
        const auto n = r.u32();
        // Cap the reserve by the bytes actually present: a forged count must
        // not trigger a huge allocation before the first read throws.
        t.rtr.reserve(std::min<std::size_t>(n, r.remaining() / sizeof(std::uint64_t)));
        for (std::uint32_t i = 0; i < n; ++i) t.rtr.push_back(r.u64());
        expect_end("token");
        handle_token(std::move(t));
        break;
      }
      case static_cast<std::uint8_t>(MsgType::kMcast): {
        Mcast m;
        m.ring_id = r.u64();
        m.seq = r.u64();
        m.sender = NodeId{r.u32()};
        m.recovery = r.boolean();
        m.delivery = delivery_class(r.u8());
        // Zero copy: the payload is an aliasing slice of the sealed packet
        // (reader offsets are relative to the body, hence + kEnvelopeSize).
        // skip() enforces the same truncation check r.bytes() would.
        const std::uint32_t len = r.u32();
        const std::size_t off = r.pos();
        r.skip(len);
        m.payload = data.slice(kEnvelopeSize + off, len);
        expect_end("mcast");
        handle_batch(m.ring_id, std::span<Mcast>(&m, 1));
        break;
      }
      case static_cast<std::uint8_t>(MsgType::kBatch): {
        const RingId ring_id = r.u64();
        const bool recovery = r.boolean();
        const auto n = r.u32();
        std::vector<Mcast> msgs;
        // 17 = fixed per-entry size (seq u64 + sender u32 + class u8 + len u32).
        msgs.reserve(std::min<std::size_t>(n, r.remaining() / 17));
        for (std::uint32_t i = 0; i < n; ++i) {
          Mcast m;
          m.ring_id = ring_id;
          m.recovery = recovery;
          m.seq = r.u64();
          m.sender = NodeId{r.u32()};
          m.delivery = delivery_class(r.u8());
          const std::uint32_t len = r.u32();
          const std::size_t off = r.pos();
          r.skip(len);
          m.payload = data.slice(kEnvelopeSize + off, len);
          msgs.push_back(std::move(m));
        }
        expect_end("batch");
        handle_batch(ring_id, msgs);
        break;
      }
      case static_cast<std::uint8_t>(MsgType::kJoin): {
        Join j;
        j.sender = NodeId{r.u32()};
        const auto n = r.u32();
        j.perceived.reserve(std::min<std::size_t>(n, r.remaining() / sizeof(std::uint32_t)));
        for (std::uint32_t i = 0; i < n; ++i) j.perceived.push_back(NodeId{r.u32()});
        j.old_ring_id = r.u64();
        j.my_aru = r.u64();
        j.high_seq = r.u64();
        expect_end("join");
        handle_join(j);
        break;
      }
      case static_cast<std::uint8_t>(MsgType::kCommit): {
        Commit c;
        c.new_ring_id = r.u64();
        const auto n = r.u32();
        // 28 = serialized CommitMember size (u32 + 3×u64).
        c.members.reserve(std::min<std::size_t>(n, r.remaining() / 28));
        for (std::uint32_t i = 0; i < n; ++i) {
          CommitMember m;
          m.node = NodeId{r.u32()};
          m.old_ring_id = r.u64();
          m.aru = r.u64();
          m.high_seq = r.u64();
          c.members.push_back(m);
        }
        expect_end("commit");
        handle_commit(c);
        break;
      }
      default:
        throw CodecError("unknown message type");
    }
  } catch (const CodecError& e) {
    ++stats_.packets_rejected_body;
    CTS_WARN() << to_string(id_) << " dropped malformed packet from " << to_string(src) << ": "
               << e.what();
  }
}

// --- Operational: token -----------------------------------------------------------

NodeId TotemNode::successor() const {
  const auto& m = view_.members;
  auto it = std::find(m.begin(), m.end(), id_);
  assert(it != m.end());
  ++it;
  return it == m.end() ? m.front() : *it;
}

bool TotemNode::in_members(NodeId n, const std::vector<NodeId>& members) const {
  return std::find(members.begin(), members.end(), n) != members.end();
}

void TotemNode::handle_token(Token tok) {
  if (state_ != State::kOperational) return;
  if (tok.ring_id != view_.ring_id) return;
  if (tok.token_seq <= last_token_seq_) return;  // duplicate/stale token
  last_token_seq_ = tok.token_seq;
  ++stats_.tokens_received;
  ++c_token_pass_;
  // A full rotation completes each time the ring leader sees the token.
  if (!view_.members.empty() && view_.members.front() == id_) ++c_rotations_;
  rec_.event(obs::EventKind::kTokenPass, id_, ReplicaId{},
             static_cast<std::int64_t>(tok.aru), static_cast<std::int64_t>(tok.ring_id));
  if (token_obs_) token_obs_();

  // Progress: the ring is alive.
  scope_.cancel(token_retrans_timer_);
  reset_token_loss_timer();

  // 1. Service retransmission requests for messages we hold.
  std::vector<TotemSeq> still_missing;
  for (TotemSeq s : tok.rtr) {
    if (s <= discarded_up_to_) {
      // Every member held s when this node discarded it, so nobody should
      // ask for it again: the stability horizon was wrong.  Report it and
      // drop the entry rather than circulate it forever; a genuine
      // requester re-adds it on its next visit, so the count keeps rising.
      ++stats_.rtr_below_floor;
      CTS_WARN() << to_string(id_) << " rtr for seq " << s << " at or below discard floor "
                 << discarded_up_to_ << " on ring " << view_.ring_id;
      continue;
    }
    auto it = store_.find(s);
    if (it != store_.end()) {
      net_.broadcast(id_, encode_mcast(it->second));
      ++stats_.msgs_retransmitted;
      ++c_msg_retrans_;
      rec_.event(obs::EventKind::kMsgRetransmit, id_, ReplicaId{}, static_cast<std::int64_t>(s));
    } else {
      still_missing.push_back(s);
    }
  }
  tok.rtr = std::move(still_missing);

  // 2. Broadcast new messages (primary component only), respecting both
  // the per-visit cap and the rotation window carried on the token: our
  // previous visit's contribution ages out first.
  tok.fcc -= std::min(tok.fcc, last_sent_on_token_);
  if (view_.primary) {
    // Fair share: no node may claim more than window/members in one visit,
    // so a flooding sender cannot capture the whole rotation window and
    // starve its successors on the ring.
    const int members = static_cast<int>(view_.members.size());
    const int fair_share = std::max(1, cfg_.window_per_rotation / members);
    const int budget =
        std::min({cfg_.max_messages_per_token,
                  cfg_.window_per_rotation - static_cast<int>(tok.fcc), fair_share});
    // Drain up to `budget` queued messages into one batch frame.  The queue
    // entries are popped BEFORE anything is encoded or delivered: once a
    // message is in the batch it is committed to the wire, so a cancel()
    // issued from a reentrant self-delivery callback correctly reports
    // false for batch-mates (already sent) while messages still queued
    // behind the batch stay cancellable.  Flow control counts MESSAGES,
    // not frames — fcc and the per-visit window are unchanged by batching.
    std::vector<Mcast> batch;
    batch.reserve(std::min<std::size_t>(send_queue_.size(),
                                        static_cast<std::size_t>(std::max(0, budget))));
    while (!send_queue_.empty() && static_cast<int>(batch.size()) < budget) {
      Mcast m;
      m.ring_id = view_.ring_id;
      m.seq = ++tok.seq;
      m.sender = id_;
      m.delivery = send_queue_.front().delivery;
      m.payload = std::move(send_queue_.front().payload);
      send_queue_.pop_front();
      batch.push_back(std::move(m));
    }
    const auto sent = static_cast<std::uint32_t>(batch.size());
    if (sent > 0) {
      net_.broadcast(id_, encode_batch(batch, view_.ring_id, /*recovery=*/false));
      stats_.msgs_multicast += sent;
      ++stats_.batch_frames_sent;
      ++c_batch_frames_;
      for (auto& m : batch) {
        // A self-delivery callback may crash this node (fail-stop tests);
        // stop touching protocol state the moment that happens.
        if (state_ == State::kDown) break;
        store_and_deliver(std::move(m));  // self-delivery
      }
    }
    tok.fcc += sent;
    last_sent_on_token_ = sent;
    if (!send_queue_.empty()) {
      // The rotation window (or fair share) closed before the queue
      // drained — backpressure a perf PR would want to see.
      ++stats_.window_stalls;
      ++c_window_stalls_;
      rec_.event(obs::EventKind::kWindowStall, id_, ReplicaId{},
                 static_cast<std::int64_t>(send_queue_.size()), budget);
    }
  } else {
    last_sent_on_token_ = 0;
  }

  // 3. Request retransmission of our own gaps.
  for (TotemSeq s = my_aru_ + 1; s <= tok.seq; ++s) {
    if (!store_.contains(s) &&
        std::find(tok.rtr.begin(), tok.rtr.end(), s) == tok.rtr.end()) {
      tok.rtr.push_back(s);
    }
  }

  // 4. Update all-received-up-to.
  if (tok.aru > my_aru_) {
    tok.aru = my_aru_;
    tok.aru_setter = id_;
  } else if (tok.aru_setter == id_ || !tok.aru_setter.valid()) {
    tok.aru = my_aru_;
    if (tok.aru == tok.seq) tok.aru_setter = NodeId{};
  }

  // Safe-delivery horizon: aru held across two successive token visits
  // means every member holds those messages.
  token_aru_prev_ = token_aru_last_;
  token_aru_last_ = tok.aru;
  deliver_contiguous();

  // Discard stable messages (Totem [1]): every member holds the prefix up
  // to the safe horizon, so no rtr request, Join high_seq or recovery
  // rebroadcast can need it again (doc/PROTOCOL.md §2.3).  The delivered
  // cap keeps anything this node has yet to deliver.
  const TotemSeq stable = std::min({token_aru_prev_, token_aru_last_, delivered_up_to_});
  if (stable > discarded_up_to_) {
    const auto end = store_.upper_bound(stable);
    stats_.msgs_discarded += static_cast<std::uint64_t>(end - store_.begin());
    store_.erase(store_.begin(), end);
    discarded_up_to_ = stable;
  }

  // 5. Forward the token after the hold time.
  scope_.after(kTokenHoldUs, [this, tok = std::move(tok)]() mutable {
    if (state_ != State::kOperational || tok.ring_id != view_.ring_id) return;
    send_token_to_successor(std::move(tok));
  });
}

void TotemNode::send_token_to_successor(Token tok) {
  tok.token_seq += 1;
  last_sent_token_ = tok;
  ++stats_.tokens_sent;

  const NodeId next = successor();
  if (next == id_) {
    // Singleton ring: loop the token back to ourselves through the event
    // queue so time still advances.
    scope_.after(kTokenHoldUs + 1, [this, tok] { handle_token(tok); });
    return;
  }
  net_.send(id_, next, encode_token(tok));
  token_retrans_attempts_ = 0;
  arm_token_retrans();
}

void TotemNode::arm_token_retrans() {
  // Re-armed on every token we forward; re-key the live timer when possible.
  if (scope_.reschedule(token_retrans_timer_, sim_.now() + kTokenRetransTimeoutUs)) return;
  token_retrans_timer_ = scope_.after(kTokenRetransTimeoutUs, [this] {
    if (state_ != State::kOperational || !last_sent_token_) return;
    // Give up after a few attempts: the token-loss timeout will rebuild the
    // ring if the successor really is gone.
    if (token_retrans_attempts_ >= kMaxTokenRetransAttempts) return;
    ++token_retrans_attempts_;
    ++stats_.token_retransmissions;
    ++c_token_retrans_;
    rec_.event(obs::EventKind::kTokenRetransmit, id_, ReplicaId{}, token_retrans_attempts_);
    net_.send(id_, successor(), encode_token(*last_sent_token_));
    arm_token_retrans();
  });
}

// --- Operational: messages ------------------------------------------------------

void TotemNode::handle_batch(RingId ring_id, std::span<Mcast> msgs) {
  // The ring checks run once per frame: a foreign batch triggers ONE
  // gather, not one per entry.
  if (state_ == State::kOperational && ring_id != view_.ring_id) {
    // Foreign message: another component exists (e.g. after a partition
    // heals).  Trigger the membership protocol to merge.
    if (!known_rings_.contains(ring_id)) enter_gather("foreign message");
    return;
  }
  // In Gather and Recover, traffic for our own old ring (including
  // recovery rebroadcasts) still counts: it fills gaps so the survivor set
  // converges.
  if (state_ == State::kDown || ring_id != view_.ring_id) return;
  const bool operational = state_ == State::kOperational;
  for (auto& m : msgs) {
    if (state_ == State::kDown) return;  // delivery callback crashed us
    store_and_deliver(std::move(m));
  }
  // Seeing traffic means the token moved on: stop retransmitting it.
  if (operational) scope_.cancel(token_retrans_timer_);
}

void TotemNode::store_and_deliver(Mcast m) {
  const TotemSeq seq = m.seq;
  if (seq <= delivered_up_to_ || store_.contains(seq)) return;  // duplicate
  store_.emplace(seq, std::move(m));
  while (store_.contains(my_aru_ + 1)) ++my_aru_;
  deliver_contiguous();
}

void TotemNode::deliver_contiguous() {
  const TotemSeq safe_horizon = std::min(token_aru_prev_, token_aru_last_);
  while (delivered_up_to_ < my_aru_) {
    auto it = store_.find(delivered_up_to_ + 1);
    assert(it != store_.end());
    // A safe-class message (and therefore everything ordered after it)
    // waits until the token's aru has confirmed group-wide reception over
    // two rotations.  During a configuration change the survivors flush
    // pending messages transitionally instead.
    if (it->second.delivery == DeliveryClass::kSafe && !transitional_flush_ &&
        it->second.seq > safe_horizon) {
      break;
    }
    ++delivered_up_to_;
    ++stats_.msgs_delivered;
    ++c_delivered_;
    // Copy sender + payload (a refcount bump, not a buffer copy) out of the
    // store before invoking the callback: a fail-stop crash() from inside
    // the delivery chain clears store_, destroying the entry `it` points at.
    if (deliver_) {
      const NodeId sender = it->second.sender;
      const SharedBytes payload = it->second.payload;
      deliver_(sender, payload);
    }
  }
}

// --- Membership: gather ------------------------------------------------------------

void TotemNode::enter_gather(const char* reason) {
  if (state_ == State::kDown) return;
  CTS_DEBUG() << to_string(id_) << " entering gather (" << reason << ")";
  // Leaving operational: stop the ring timers; keep store_ (old-ring
  // messages are recovered after the next commit).
  scope_.cancel(token_loss_timer_);
  scope_.cancel(token_retrans_timer_);
  scope_.cancel(commit_timer_);
  scope_.cancel(recovery_timer_);
  state_ = State::kGather;
  joins_.clear();
  perceived_.clear();
  perceived_.insert(id_);
  broadcast_join();
  arm_gather_timer();
}

void TotemNode::arm_gather_timer() {
  scope_.cancel(gather_timer_);
  gather_timer_ = scope_.after(kGatherTimeoutUs, [this] {
    if (state_ == State::kGather) on_gather_deadline();
  });
}

void TotemNode::broadcast_join() {
  Join j;
  j.sender = id_;
  j.perceived.assign(perceived_.begin(), perceived_.end());
  j.old_ring_id = view_.ring_id;
  j.my_aru = my_aru_;
  j.high_seq = store_.empty() ? my_aru_ : store_.rbegin()->first;
  joins_[id_] = j;
  net_.broadcast(id_, encode_join(j));
}

void TotemNode::handle_join(const Join& j) {
  if (state_ == State::kDown) return;
  if (state_ == State::kOperational) {
    // A current member lost the token or crashed+restarted (the ring is
    // broken, re-form it), or a new or recovered node wants in.
    // enter_gather broadcasts our join; fall through to record theirs.
    enter_gather(in_members(j.sender, view_.members) ? "member join" : "new node join");
  } else if (state_ == State::kRecover) {
    // Someone is re-gathering while we recover: abandon and regather so the
    // membership converges on one commit.
    enter_gather("join during recovery");
  }

  joins_[j.sender] = j;
  bool grew = perceived_.insert(j.sender).second;
  for (NodeId n : j.perceived) grew |= perceived_.insert(n).second;
  if (grew) {
    // Our view of the candidate set changed: re-announce and give everyone
    // time to converge on the same set.
    broadcast_join();
    arm_gather_timer();
  }
}

void TotemNode::on_gather_deadline() {
  // Candidates are the nodes actually heard from (plus ourselves); nodes we
  // merely perceived but never heard are treated as dead.
  std::vector<NodeId> candidates;
  candidates.reserve(joins_.size());
  for (const auto& [n, _] : joins_) candidates.push_back(n);
  std::sort(candidates.begin(), candidates.end());

  if (candidates.front() == id_) {
    // We are the representative: commit a new ring.
    Commit c;
    RingId max_old = max_ring_seen_;
    for (const auto& [_, j] : joins_) max_old = std::max(max_old, j.old_ring_id);
    // Ring ids embed the representative id so two components that commit
    // concurrently can never mint the same ring id.
    c.new_ring_id = (((max_old >> 8) + 1) << 8) | (id_.value & 0xff);
    for (NodeId n : candidates) {
      const Join& j = joins_.at(n);
      c.members.push_back(CommitMember{n, j.old_ring_id, j.my_aru, j.high_seq});
    }
    net_.broadcast(id_, encode_commit(c));
    // The commit is the one unacknowledged step of the membership
    // handshake: a member that loses this datagram stays deaf in Gather
    // until its commit timeout while the new ring delivers traffic without
    // it — and a message delivered only on that ring is unrecoverable for
    // the orphan once the NEXT ring's recovery runs (recovery converges
    // each member's own old ring only).  Rebroadcast the commit; receivers
    // treat duplicates as stale, and a member that catches up late repairs
    // any missed messages through the token's rtr machinery.
    for (int k = 1; k <= 2; ++k) {
      scope_.after(kCommitTimeoutUs * k / 3, [this, c] {
        if (state_ == State::kDown || max_ring_seen_ > c.new_ring_id) return;
        net_.broadcast(id_, encode_commit(c));
      });
    }
    handle_commit(c);  // local delivery
  } else {
    // Wait for the representative's commit; regather if it never comes
    // (e.g. the representative crashed right after the gather phase).
    scope_.cancel(commit_timer_);
    commit_timer_ = scope_.after(kCommitTimeoutUs, [this] {
      if (state_ == State::kGather) enter_gather("commit timeout");
    });
  }
}

void TotemNode::handle_commit(const Commit& c) {
  if (state_ != State::kGather) return;
  bool me_in = false;
  for (const auto& m : c.members) me_in |= (m.node == id_);
  if (!me_in) return;
  if (c.new_ring_id <= max_ring_seen_) return;  // stale commit
  // Raise the ring id at acceptance, not at install: a representative that
  // regathers before installing (a Join during recovery) must mint a fresh
  // id, and this Commit's own rebroadcasts must go stale at every member.
  max_ring_seen_ = c.new_ring_id;
  scope_.cancel(gather_timer_);
  scope_.cancel(commit_timer_);
  begin_recovery(c);
}

// --- Membership: recovery -----------------------------------------------------------

void TotemNode::begin_recovery(const Commit& c) {
  state_ = State::kRecover;
  pending_commit_ = c;

  // Rebroadcast every old-ring message we hold beyond the group's minimum
  // aru, so all survivors of our old ring converge on the same set; record
  // the highest seq anyone reported so finish_recovery can verify we
  // actually converged.
  recovery_target_ = 0;
  if (view_.ring_id != 0) {
    TotemSeq low = my_aru_;
    for (const auto& m : c.members) {
      if (m.old_ring_id == view_.ring_id) {
        low = std::min(low, m.aru);
        recovery_target_ = std::max(recovery_target_, m.high_seq);
      }
    }
    recovery_target_ = std::max(recovery_target_,
                                store_.empty() ? my_aru_ : store_.rbegin()->first);
    // Rebroadcasts ride batch frames too, chunked at the per-visit cap so
    // one lost datagram costs at most a visit's worth of rebroadcasts (the
    // bounded recovery retries re-send the rest).
    const auto chunk = static_cast<std::size_t>(std::max(1, cfg_.max_messages_per_token));
    std::vector<Mcast> frame;
    const auto flush = [&] {
      if (frame.empty()) return;
      net_.broadcast(id_, encode_batch(frame, view_.ring_id, /*recovery=*/true));
      ++stats_.batch_frames_sent;
      ++c_batch_frames_;
      frame.clear();
    };
    for (auto it = store_.upper_bound(low); it != store_.end(); ++it) {
      frame.push_back(it->second);
      ++stats_.msgs_retransmitted;
      ++c_msg_retrans_;
      if (frame.size() >= chunk) flush();
    }
    flush();
  }

  scope_.cancel(recovery_timer_);
  recovery_timer_ = scope_.after(kRecoveryTimeoutUs, [this] {
    if (state_ == State::kRecover) finish_recovery();
  });
}

void TotemNode::finish_recovery() {
  // If loss during the recovery window left a hole below the group's high
  // mark, retry the membership protocol (every survivor rebroadcasts
  // again) instead of installing with a gap that would silently diverge
  // the delivered sequences.  Bounded: a message no survivor holds cannot
  // be recovered (it was never delivered as agreed anywhere), so after a
  // few attempts we proceed with what the survivor set has: install()
  // drops the messages above the hole.  That give-up is counted, logged and
  // traced, never silent.
  if (view_.ring_id != 0 && my_aru_ < recovery_target_) {
    if (recovery_attempts_ < 3) {
      ++recovery_attempts_;
      CTS_DEBUG() << to_string(id_) << " recovery incomplete (aru " << my_aru_ << " < target "
                  << recovery_target_ << "), retrying membership";
      enter_gather("recovery incomplete");
      return;
    }
    ++stats_.recovery_gave_up;
    CTS_WARN() << to_string(id_) << " recovery gave up on ring " << view_.ring_id << ": aru "
               << my_aru_ << " < target " << recovery_target_ << ", installing with the hole";
    // Created at the first give-up: a run without one exports no such
    // counter.
    ++rec_.counter("totem.recovery_gave_up");
    rec_.event(obs::EventKind::kTotemRecoveryGaveUp, id_, ReplicaId{},
               static_cast<std::int64_t>(my_aru_), static_cast<std::int64_t>(recovery_target_),
               static_cast<std::int64_t>(view_.ring_id));
  }

  // Deliver everything contiguous from the old ring, including safe-class
  // messages whose group-wide reception can no longer be confirmed on the
  // dead ring (transitional delivery to the survivor set).
  transitional_flush_ = true;
  deliver_contiguous();
  transitional_flush_ = false;
  const Commit& c = pending_commit_;
  View v;
  v.ring_id = c.new_ring_id;
  for (const auto& m : c.members) v.members.push_back(m.node);
  std::sort(v.members.begin(), v.members.end());
  v.primary = is_primary(v.members);
  install(v);
}

bool TotemNode::is_primary(const std::vector<NodeId>& members) const {
  if (cfg_.universe.empty()) return true;  // no universe configured: always primary
  std::size_t present = 0;
  for (NodeId n : cfg_.universe) {
    if (in_members(n, members)) ++present;
  }
  return present * 2 > cfg_.universe.size();
}

void TotemNode::install(const View& v) {
  if (view_.ring_id != 0) known_rings_.insert(view_.ring_id);
  known_rings_.insert(v.ring_id);
  view_ = v;
  clear_ring_state();
  state_ = State::kOperational;
  recovery_attempts_ = 0;
  ++stats_.membership_changes;
  ++c_ring_changes_;
  rec_.event(obs::EventKind::kRingChange, id_, ReplicaId{}, static_cast<std::int64_t>(v.ring_id),
             static_cast<std::int64_t>(v.members.size()), v.primary ? 1 : 0);
  CTS_INFO() << to_string(id_) << " installed ring " << v.ring_id << " with " << v.members.size()
             << " members" << (v.primary ? " (primary)" : " (non-primary)");
  if (view_cb_) view_cb_(view_);

  reset_token_loss_timer();
  scope_.cancel(seek_timer_);
  if (!view_.primary) {
    // Keep looking for the rest of the universe: once the partition heals,
    // the periodic Join reaches the primary component and triggers a merge
    // even if nobody is multicasting.
    seek_timer_ = scope_.after(kSeekIntervalUs, [this] {
      if (state_ != State::kOperational || view_.primary) return;
      enter_gather("seeking primary component");
    });
  }
  if (view_.members.front() == id_) {
    // Ring leader creates the first token of the configuration.
    Token tok;
    tok.ring_id = view_.ring_id;
    tok.token_seq = 1;
    tok.seq = 0;
    tok.aru = 0;
    scope_.after(kTokenHoldUs, [this, tok] { handle_token(tok); });
  }
}

}  // namespace cts::totem
