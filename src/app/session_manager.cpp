#include "app/session_manager.hpp"

namespace cts::app {

// --- Client-side helpers ---------------------------------------------------------

Bytes session_open(Micros ttl_us) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(SessionOp::kOpen));
  w.i64(ttl_us);
  return std::move(w).take();
}

namespace {
Bytes with_id(SessionOp op, std::uint64_t id) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(id);
  return std::move(w).take();
}
}  // namespace

Bytes session_touch(std::uint64_t id) { return with_id(SessionOp::kTouch, id); }
Bytes session_close(std::uint64_t id) { return with_id(SessionOp::kClose, id); }
Bytes session_query(std::uint64_t id) { return with_id(SessionOp::kQuery, id); }

Bytes session_count() {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(SessionOp::kCount));
  return std::move(w).take();
}

Bytes session_migrate(std::uint64_t id, std::uint32_t dst_ring) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(SessionOp::kMigrate));
  w.u64(id);
  w.u32(dst_ring);
  return std::move(w).take();
}

Bytes session_open_many(std::uint32_t count, Micros ttl_us) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(SessionOp::kOpenMany));
  w.u32(count);
  w.i64(ttl_us);
  return std::move(w).take();
}

SessionReply SessionReply::parse(const Bytes& b) {
  BytesReader r(b);
  SessionReply out;
  out.status = static_cast<SessionStatus>(r.u8());
  out.session_id = r.u64();
  out.stamp = r.i64();
  out.live_count = r.u64();
  out.digest = r.u64();
  return out;
}

namespace {
Bytes make_reply(SessionStatus status, std::uint64_t id = 0, Micros stamp = 0,
                 std::uint64_t live = 0, std::uint64_t digest = 0) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(id);
  w.i64(stamp);
  w.u64(live);
  w.u64(digest);
  return std::move(w).take();
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

// --- SessionManagerApp ---------------------------------------------------------------

SessionManagerApp::SessionManagerApp(replication::ReplicaContext& ctx, Options opt)
    : ctx_(ctx),
      sys_(ctx.time, ctx.processing_thread),
      // A derived thread id keeps shards (and other apps on the same
      // service) from colliding; same derivation at every replica.
      ids_(ctx.time, ThreadId{ctx.processing_thread.value + 3000},
           /*ns=*/ctx.group.value * 1000 + ctx.processing_thread.value),
      opt_(opt) {
  // Sharded mode: open the ring's session-migration stream (see
  // KvStoreApp's constructor for the src_grp/adoption contract).
  if (opt_.shard_map != nullptr && ctx.gcs != nullptr) {
    handoff_ = std::make_unique<ccs::CausalMessenger>(
        *ctx.gcs, ctx.time, opt_.shard_map->cross_group(opt_.ring),
        opt_.shard_map->session_stream(opt_.ring));
    handoff_->subscribe(ShardMap::kSessionHandoffConn,
                        [this](const gcs::Message& m, Micros ts, const Bytes& body) {
                          adopt_handoff(m, ts, body);
                        });
  }
}

void SessionManagerApp::handle_request(const SharedBytes& request, std::function<void(Bytes)> done) {
  serve(request, std::move(done));
}

void SessionManagerApp::index(std::uint64_t id, const Session& s) {
  deadlines_.emplace(DeadlineKey{s.last_activity + s.ttl, s.epoch}, Due{id, false});
}

void SessionManagerApp::index(std::uint64_t base_id, const Batch& b) {
  deadlines_.emplace(DeadlineKey{b.last_activity + b.ttl, b.epoch}, Due{base_id, true});
}

void SessionManagerApp::unindex(const Session& s) {
  deadlines_.erase(DeadlineKey{s.last_activity + s.ttl, s.epoch});
}

void SessionManagerApp::reap_due(Micros now) {
  while (!deadlines_.empty() && deadlines_.begin()->first.first <= now) {
    const auto node = deadlines_.extract(deadlines_.begin());
    const std::uint64_t epoch = node.key().second;
    const Due due = node.mapped();
    if (due.batch) {
      auto it = batches_.find(due.id);
      if (it == batches_.end() || it->second.epoch != epoch) continue;
      reaped_ += it->second.count;
      batched_ -= it->second.count;
      batches_.erase(it);
    } else {
      auto it = sessions_.find(due.id);
      if (it == sessions_.end() || it->second.epoch != epoch) continue;
      sessions_.erase(it);
      ++reaped_;
    }
  }
}

void SessionManagerApp::install(std::uint64_t id, const Session& s) {
  auto [it, fresh] = sessions_.try_emplace(id, s);
  if (!fresh) {
    unindex(it->second);
    it->second = s;
  }
  index(id, s);
}

const SessionManagerApp::Batch* SessionManagerApp::batch_of(std::uint64_t id,
                                                            std::uint64_t* base) const {
  // Batches hold consecutive id ranges [base, base + count); find the
  // candidate batch at or below `id` and range-check it.
  auto it = batches_.upper_bound(id);
  if (it == batches_.begin()) return nullptr;
  --it;
  if (id - it->first >= it->second.count) return nullptr;
  if (base != nullptr) *base = it->first;
  return &it->second;
}

sim::Task SessionManagerApp::serve(SharedBytes request, std::function<void(Bytes)> done) {
  BytesReader r(request);
  Bytes reply;
  // Every request whose reply depends on which sessions are live reads the
  // group clock first, and that reading first reaps every session it has
  // outlived (see the header).
  try {
    const auto op = static_cast<SessionOp>(r.u8());
    switch (op) {
      case SessionOp::kOpen: {
        const Micros ttl = r.i64();
        if (ttl <= 0) {
          reply = make_reply(SessionStatus::kBadRequest);
          break;
        }
        const std::uint64_t id = co_await ids_.make_id();
        const Micros now = (co_await sys_.gettimeofday()).total_us();
        reap_due(now);
        Session s;
        s.ttl = ttl;
        s.last_activity = now;
        s.epoch = ++epoch_counter_;
        install(id, s);
        reply = make_reply(SessionStatus::kOk, id, s.last_activity + ttl);
        break;
      }
      case SessionOp::kTouch: {
        const std::uint64_t id = r.u64();
        const Micros now = (co_await sys_.gettimeofday()).total_us();
        reap_due(now);
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          reply = make_reply(SessionStatus::kUnknownSession);
          break;
        }
        unindex(it->second);
        it->second.last_activity = now;
        it->second.epoch = ++epoch_counter_;
        index(id, it->second);
        reply = make_reply(SessionStatus::kOk, id, it->second.last_activity + it->second.ttl);
        break;
      }
      case SessionOp::kClose: {
        const std::uint64_t id = r.u64();
        reap_due((co_await sys_.gettimeofday()).total_us());
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          reply = make_reply(SessionStatus::kUnknownSession);
          break;
        }
        unindex(it->second);
        sessions_.erase(it);
        reply = make_reply(SessionStatus::kOk, id);
        break;
      }
      case SessionOp::kQuery: {
        const std::uint64_t id = r.u64();
        reap_due((co_await sys_.gettimeofday()).total_us());
        auto it = sessions_.find(id);
        if (it != sessions_.end()) {
          reply = make_reply(SessionStatus::kOk, id, it->second.last_activity);
        } else if (const Batch* b = batch_of(id, nullptr)) {
          reply = make_reply(SessionStatus::kOk, id, b->last_activity);
        } else {
          reply = make_reply(SessionStatus::kUnknownSession);
        }
        break;
      }
      case SessionOp::kCount: {
        reap_due((co_await sys_.gettimeofday()).total_us());
        reply = make_reply(SessionStatus::kOk, 0, 0, live_sessions(), state_digest());
        break;
      }
      case SessionOp::kOpenMany: {
        const std::uint32_t count = r.u32();
        const Micros ttl = r.i64();
        if (count == 0 || ttl <= 0) {
          reply = make_reply(SessionStatus::kBadRequest);
          break;
        }
        // One id round + one clock round, however large the batch: the
        // whole point of the bulk path.  Member ids are the consecutive
        // range [base, base + count) — synthetic, but each one answers
        // QUERY like an individually opened session.
        const std::uint64_t base = co_await ids_.make_id();
        const Micros now = (co_await sys_.gettimeofday()).total_us();
        reap_due(now);
        Batch b;
        b.count = count;
        b.ttl = ttl;
        b.last_activity = now;
        b.epoch = ++epoch_counter_;
        batches_[base] = b;
        batched_ += count;
        index(base, b);
        reply = make_reply(SessionStatus::kOk, base, b.last_activity + ttl, count);
        break;
      }
      case SessionOp::kMigrate: {
        const std::uint64_t id = r.u64();
        const std::uint32_t dst = r.u32();
        if (!handoff_ || dst >= opt_.shard_map->rings() || dst == opt_.ring) {
          reply = make_reply(SessionStatus::kBadRequest);
          break;
        }
        reap_due((co_await sys_.gettimeofday()).total_us());
        auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          reply = make_reply(SessionStatus::kUnknownSession);
          break;
        }
        // Two-phase handoff, same shape as the KV lease transfer: ordered
        // release here, causally stamped adoption at the owning ring.
        const Session exported = it->second;
        BytesWriter rec;
        rec.u64(id);
        rec.i64(exported.ttl);
        rec.i64(exported.last_activity);
        unindex(exported);
        sessions_.erase(it);
        const MsgSeqNum seq = ++handoff_seq_;
        const Micros ts =
            co_await handoff_->send(opt_.shard_map->cross_group(dst),
                                    ShardMap::kSessionHandoffConn, seq, std::move(rec).take());
        if (ts == kNoTime) {
          --handoff_seq_;
          install(id, exported);
          reply = make_reply(SessionStatus::kBadRequest);
          break;
        }
        ++handoffs_out_;
        if (auto* rec_ptr = ctx_.gcs != nullptr ? ctx_.gcs->recorder() : nullptr) {
          // Handoffs are per-migration events (a handful per run), so the
          // by-name counter lookup here is deliberate — no handle cache.
          ++rec_ptr->counter("session.handoffs_out");
          rec_ptr->event(obs::EventKind::kHandoffExport, ctx_.gcs->node_id(), ctx_.replica,
                         opt_.shard_map->session_stream(opt_.ring).value,
                         static_cast<std::int64_t>(seq), static_cast<std::int64_t>(dst));
        }
        reply = make_reply(SessionStatus::kOk, id, ts);
        break;
      }
      default:
        reply = make_reply(SessionStatus::kBadRequest);
    }
  } catch (const CodecError&) {
    reply = make_reply(SessionStatus::kBadRequest);
  }
  done(std::move(reply));
}

void SessionManagerApp::adopt_handoff(const gcs::Message& m, Micros stamp, const Bytes& record) {
  // Agreed delivery order; causal floor already at `stamp` — the session's
  // next activity reading here exceeds the migration stamp minted at the
  // source (the cross-shard ordering property the sweep test asserts).
  try {
    BytesReader r(record);
    const std::uint64_t id = r.u64();
    Session s;
    s.ttl = r.i64();
    s.last_activity = r.i64();
    s.epoch = ++epoch_counter_;
    install(id, s);
    ++handoffs_in_;
    if (auto* rec_ptr = ctx_.gcs != nullptr ? ctx_.gcs->recorder() : nullptr) {
      ++rec_ptr->counter("session.handoffs_in");
      rec_ptr->event(obs::EventKind::kHandoffAdopt, ctx_.gcs->node_id(), ctx_.replica,
                     m.hdr.tag.value, static_cast<std::int64_t>(m.hdr.seq),
                     static_cast<std::int64_t>(stamp));
    }
  } catch (const CodecError&) {
    if (auto* rec_ptr = ctx_.gcs != nullptr ? ctx_.gcs->recorder() : nullptr) {
      ++rec_ptr->counter("session.handoffs_rejected");
    }
  }
}

std::uint64_t SessionManagerApp::state_digest() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [id, s] : sessions_) {
    h = mix64(h, id);
    h = mix64(h, static_cast<std::uint64_t>(s.ttl));
    h = mix64(h, static_cast<std::uint64_t>(s.last_activity));
  }
  for (const auto& [base, b] : batches_) {
    h = mix64(h, base);
    h = mix64(h, b.count);
    h = mix64(h, static_cast<std::uint64_t>(b.ttl));
    h = mix64(h, static_cast<std::uint64_t>(b.last_activity));
  }
  h = mix64(h, reaped_);
  return h;
}

Bytes SessionManagerApp::checkpoint() const {
  BytesWriter w;
  w.u64(epoch_counter_);
  w.u64(reaped_);
  w.u64(handoff_seq_);
  w.u64(ids_.minted());
  w.u32(static_cast<std::uint32_t>(sessions_.size()));
  for (const auto& [id, s] : sessions_) {
    w.u64(id);
    w.i64(s.ttl);
    w.i64(s.last_activity);
    w.u64(s.epoch);
  }
  w.u32(static_cast<std::uint32_t>(batches_.size()));
  for (const auto& [base, b] : batches_) {
    w.u64(base);
    w.u32(b.count);
    w.i64(b.ttl);
    w.i64(b.last_activity);
    w.u64(b.epoch);
  }
  return std::move(w).take();
}

void SessionManagerApp::restore(const Bytes& state) {
  BytesReader r(state);
  epoch_counter_ = r.u64();
  reaped_ = r.u64();
  handoff_seq_ = r.u64();
  ids_.restore_minted(r.u64());
  sessions_.clear();
  deadlines_.clear();
  const auto n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t id = r.u64();
    Session s;
    s.ttl = r.i64();
    s.last_activity = r.i64();
    s.epoch = r.u64();
    install(id, s);
  }
  batches_.clear();
  batched_ = 0;
  const auto nb = r.u32();
  for (std::uint32_t i = 0; i < nb; ++i) {
    const std::uint64_t base = r.u64();
    Batch b;
    b.count = r.u32();
    b.ttl = r.i64();
    b.last_activity = r.i64();
    b.epoch = r.u64();
    batched_ += b.count;
    batches_[base] = b;
    index(base, b);
  }
}

replication::ReplicaFactory session_manager_factory(SessionManagerApp::Options opt) {
  return [opt](replication::ReplicaContext& ctx) {
    return std::make_unique<SessionManagerApp>(ctx, opt);
  };
}

}  // namespace cts::app
