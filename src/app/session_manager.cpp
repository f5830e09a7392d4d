#include "app/session_manager.hpp"

#include <algorithm>
#include <utility>
#include <vector>

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
}  // namespace

// --- SessionManagerApp ---------------------------------------------------------------

SessionManagerApp::SessionManagerApp(replication::ReplicaContext& ctx, Options opt)
    : sys_(ctx.time, ctx.processing_thread),
      // A derived thread id keeps shards (and other apps on the same
      // service) from colliding; same derivation at every replica.
      ids_(ctx.time, ThreadId{ctx.processing_thread.value + 3000},
           /*ns=*/ctx.group.value * 1000 + ctx.processing_thread.value),
      handoff_(ctx, opt, &ShardMap::session_stream, ShardMap::kSessionHandoffConn, "session",
               [this](const Bytes& record) { adopt_handoff(record); }) {}

void SessionManagerApp::handle_request(const SharedBytes& request, std::function<void(Bytes)> done) {
  serve(request, std::move(done));
}

void SessionManagerApp::reap_due(Micros now) {
  deadlines_.expire(now, [this](const Due& due, std::uint64_t epoch) {
    if (due.batch) {
      auto it = batches_.find(due.id);
      if (it == batches_.end() || it->second.epoch != epoch) return;
      reaped_ += it->second.count;
      batched_ -= it->second.count;
      batches_.erase(it);
    } else {
      auto it = sessions_.find(due.id);
      if (it == sessions_.end() || it->second.epoch != epoch) return;
      sessions_.erase(it);
      ++reaped_;
    }
  });
}

void SessionManagerApp::install(std::uint64_t id, const Session& s) {
  auto [it, fresh] = sessions_.try_emplace(id, s);
  if (!fresh) {
    disarm(it->second);
    it->second = s;
  }
  arm(id, s);
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
        disarm(it->second);
        it->second.last_activity = now;
        it->second.epoch = ++epoch_counter_;
        arm(id, it->second);
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
        disarm(it->second);
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
        arm(base, b, /*batch=*/true);
        reply = make_reply(SessionStatus::kOk, base, b.last_activity + ttl, count);
        break;
      }
      case SessionOp::kMigrate: {
        const std::uint64_t id = r.u64();
        const std::uint32_t dst = r.u32();
        if (!handoff_.routes_to(dst)) {
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
        disarm(exported);
        sessions_.erase(it);
        const Micros ts = co_await handoff_.send(dst, std::move(rec).take());
        if (ts == kNoTime) {
          install(id, exported);
          reply = make_reply(SessionStatus::kBadRequest);
          break;
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

void SessionManagerApp::adopt_handoff(const Bytes& record) {
  // The causal floor is already at the stamp, so the session's next
  // activity reading here exceeds the migration stamp minted at the source
  // (the cross-shard ordering property the sweep test asserts).
  BytesReader r(record);
  const std::uint64_t id = r.u64();
  Session s;
  s.ttl = r.i64();
  s.last_activity = r.i64();
  s.epoch = ++epoch_counter_;
  install(id, s);
}

std::uint64_t SessionManagerApp::state_digest() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [id, s] : sessions_) {
    h = hash_mix(h, id);
    h = hash_mix(h, static_cast<std::uint64_t>(s.ttl));
    h = hash_mix(h, static_cast<std::uint64_t>(s.last_activity));
  }
  for (const auto& [base, b] : batches_) {
    h = hash_mix(h, base);
    h = hash_mix(h, b.count);
    h = hash_mix(h, static_cast<std::uint64_t>(b.ttl));
    h = hash_mix(h, static_cast<std::uint64_t>(b.last_activity));
  }
  h = hash_mix(h, reaped_);
  return h;
}

Bytes SessionManagerApp::checkpoint() const {
  BytesWriter w;
  w.u64(epoch_counter_);
  w.u64(reaped_);
  w.u64(handoff_.seq());
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
  // Parse the whole checkpoint before assigning anything: a malformed one
  // throws CodecError here and leaves the app as it was.
  BytesReader r(state);
  const std::uint64_t epoch_counter = r.u64();
  const std::uint64_t reaped = r.u64();
  const std::uint64_t handoff_seq = r.u64();
  const std::uint64_t minted = r.u64();
  // Reserve no more than the bytes present can hold, so a lying count
  // cannot trigger a huge allocation before the first read throws.
  const auto reserve = [&r](auto& v, std::uint32_t n, std::size_t record_bytes) {
    v.reserve(std::min<std::size_t>(n, r.remaining() / record_bytes));
  };
  std::vector<std::pair<std::uint64_t, Session>> sessions;
  const auto n = r.u32();
  reserve(sessions, n, 4 * 8);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto& [id, s] = sessions.emplace_back();
    id = r.u64();
    s.ttl = r.i64();
    s.last_activity = r.i64();
    s.epoch = r.u64();
  }
  std::vector<std::pair<std::uint64_t, Batch>> batches;
  const auto nb = r.u32();
  reserve(batches, nb, 4 * 8 + 4);
  for (std::uint32_t i = 0; i < nb; ++i) {
    auto& [base, b] = batches.emplace_back();
    base = r.u64();
    b.count = r.u32();
    b.ttl = r.i64();
    b.last_activity = r.i64();
    b.epoch = r.u64();
  }

  epoch_counter_ = epoch_counter;
  reaped_ = reaped;
  handoff_.restore_seq(handoff_seq);
  ids_.restore_minted(minted);
  sessions_.clear();
  deadlines_.clear();
  for (const auto& [id, s] : sessions) install(id, s);
  batches_.clear();
  batched_ = 0;
  for (const auto& [base, b] : batches) {
    batched_ += b.count;
    batches_[base] = b;
    arm(base, b, /*batch=*/true);
  }
}

replication::ReplicaFactory session_manager_factory(SessionManagerApp::Options opt) {
  return [opt](replication::ReplicaContext& ctx) {
    return std::make_unique<SessionManagerApp>(ctx, opt);
  };
}

}  // namespace cts::app
