#include "app/kv_store.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

namespace cts::app {

const char* to_string(KvStatus s) {
  switch (s) {
    case KvStatus::kOk:
      return "ok";
    case KvStatus::kNotFound:
      return "not-found";
    case KvStatus::kLeaseHeld:
      return "lease-held";
    case KvStatus::kLeaseDenied:
      return "lease-denied";
    case KvStatus::kBadRequest:
      return "bad-request";
    case KvStatus::kRetry:
      return "retry";
  }
  return "?";
}

// --- Request builders ---------------------------------------------------------

namespace {
BytesWriter op_header(KvOp op, const std::string& key) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  return w;
}
}  // namespace

Bytes kv_put(const std::string& key, const std::string& value, std::uint64_t owner) {
  BytesWriter w = op_header(KvOp::kPut, key);
  w.str(value);
  w.u64(owner);
  return std::move(w).take();
}

Bytes kv_get(const std::string& key) { return std::move(op_header(KvOp::kGet, key)).take(); }

Bytes kv_del(const std::string& key, std::uint64_t owner) {
  BytesWriter w = op_header(KvOp::kDelete, key);
  w.u64(owner);
  return std::move(w).take();
}

Bytes kv_acquire(const std::string& key, std::uint64_t owner, Micros ttl_us) {
  BytesWriter w = op_header(KvOp::kAcquire, key);
  w.u64(owner);
  w.i64(ttl_us);
  return std::move(w).take();
}

Bytes kv_release(const std::string& key, std::uint64_t owner) {
  BytesWriter w = op_header(KvOp::kRelease, key);
  w.u64(owner);
  return std::move(w).take();
}

Bytes kv_stats() {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(KvOp::kStats));
  w.str("");
  return std::move(w).take();
}

Bytes kv_migrate(const std::string& key, std::uint32_t dst_ring) {
  BytesWriter w = op_header(KvOp::kMigrate, key);
  w.u32(dst_ring);
  return std::move(w).take();
}

KvReply KvReply::parse(const Bytes& b) {
  BytesReader r(b);
  KvReply out;
  out.status = static_cast<KvStatus>(r.u8());
  out.value = r.str();
  out.version = r.u64();
  out.lease_expiry = r.i64();
  out.key_count = r.u64();
  out.state_digest = r.u64();
  return out;
}

namespace {
Bytes make_reply(KvStatus status, const std::string& value = "", std::uint64_t version = 0,
                 Micros lease_expiry = 0, std::uint64_t key_count = 0,
                 std::uint64_t digest = 0) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.str(value);
  w.u64(version);
  w.i64(lease_expiry);
  w.u64(key_count);
  w.u64(digest);
  return std::move(w).take();
}

std::uint64_t hash_str(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = hash_mix(h, c);
  return h;
}
}  // namespace

// --- KvStoreApp -------------------------------------------------------------------

KvStoreApp::KvStoreApp(replication::ReplicaContext& ctx, Options opt)
    : sys_(ctx.time, ctx.processing_thread),
      handoff_(ctx, opt, &ShardMap::kv_stream, ShardMap::kKvHandoffConn, "kv",
               [this](const Bytes& record) { adopt_handoff(record); }) {}

void KvStoreApp::handle_request(const SharedBytes& request, std::function<void(Bytes)> done) {
  serve(request, std::move(done));
}

bool KvStoreApp::lease_blocks(const Entry& e, std::uint64_t owner, Micros now) const {
  return e.lease_owner != 0 && e.lease_owner != owner && e.lease_expiry > now;
}

void KvStoreApp::install(const std::string& key, Entry e) {
  auto [it, fresh] = entries_.try_emplace(key);
  if (!fresh) disarm_lease(it->second);
  it->second = std::move(e);
  arm_lease(key, it->second);
}

void KvStoreApp::expire_leases(Micros now) {
  leases_.expire(now, [this](const std::string& key, std::uint64_t grant) {
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.lease_grant != grant) return;
    it->second.lease_owner = 0;
    it->second.lease_expiry = 0;
    ++leases_expired_;
  });
}

sim::Task KvStoreApp::serve(SharedBytes request, std::function<void(Bytes)> done) {
  BytesReader r(request);
  Bytes reply;
  try {
    const auto op = static_cast<KvOp>(r.u8());
    const std::string key = r.str();
    switch (op) {
      case KvOp::kPut: {
        const std::string value = r.str();
        const std::uint64_t owner = r.u64();
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.lease_owner != 0) {
          // A lease exists: check it against the GROUP clock so every
          // replica reaches the same verdict.
          const Micros now = (co_await sys_.gettimeofday()).total_us();
          expire_leases(now);
          if (lease_blocks(it->second, owner, now)) {
            reply = make_reply(KvStatus::kLeaseHeld);
            break;
          }
        }
        Entry& e = entries_[key];
        e.value = value;
        ++e.version;
        reply = make_reply(KvStatus::kOk, "", e.version);
        break;
      }
      case KvOp::kGet: {
        auto it = entries_.find(key);
        if (it == entries_.end()) {
          reply = make_reply(KvStatus::kNotFound);
        } else {
          reply = make_reply(KvStatus::kOk, it->second.value, it->second.version);
        }
        break;
      }
      case KvOp::kDelete: {
        const std::uint64_t owner = r.u64();
        auto it = entries_.find(key);
        if (it == entries_.end()) {
          reply = make_reply(KvStatus::kNotFound);
          break;
        }
        if (it->second.lease_owner != 0) {
          const Micros now = (co_await sys_.gettimeofday()).total_us();
          expire_leases(now);
          if (lease_blocks(it->second, owner, now)) {
            reply = make_reply(KvStatus::kLeaseHeld);
            break;
          }
        }
        disarm_lease(it->second);
        entries_.erase(it);
        reply = make_reply(KvStatus::kOk);
        break;
      }
      case KvOp::kAcquire: {
        const std::uint64_t owner = r.u64();
        const Micros ttl = r.i64();
        if (owner == 0 || ttl <= 0) {
          reply = make_reply(KvStatus::kBadRequest);
          break;
        }
        const Micros now = (co_await sys_.gettimeofday()).total_us();
        expire_leases(now);
        Entry& e = entries_[key];  // acquiring creates the key if absent
        if (lease_blocks(e, owner, now)) {
          reply = make_reply(KvStatus::kLeaseDenied, "", e.version, e.lease_expiry);
          break;
        }
        disarm_lease(e);  // a renewal replaces the owner's deadline
        e.lease_owner = owner;
        e.lease_expiry = now + ttl;
        e.lease_grant = ++grant_counter_;
        arm_lease(key, e);
        reply = make_reply(KvStatus::kOk, "", e.version, e.lease_expiry);
        break;
      }
      case KvOp::kRelease: {
        const std::uint64_t owner = r.u64();
        auto it = entries_.find(key);
        if (it == entries_.end() || it->second.lease_owner != owner) {
          reply = make_reply(KvStatus::kLeaseDenied);
          break;
        }
        disarm_lease(it->second);
        it->second.lease_owner = 0;
        it->second.lease_expiry = 0;
        reply = make_reply(KvStatus::kOk);
        break;
      }
      case KvOp::kStats: {
        reply = make_reply(KvStatus::kOk, "", 0, 0, entries_.size(), state_digest());
        break;
      }
      case KvOp::kMigrate: {
        const std::uint32_t dst = r.u32();
        if (!handoff_.routes_to(dst)) {
          reply = make_reply(KvStatus::kBadRequest);
          break;
        }
        auto it = entries_.find(key);
        if (it == entries_.end()) {
          reply = make_reply(KvStatus::kNotFound);
          break;
        }
        // Phase 1 — ordered release: export the entry and erase it at this
        // agreed position in the stream, so no replica of this ring serves
        // the key past the release point.
        const Entry exported = it->second;
        BytesWriter rec;
        rec.str(key);
        rec.str(exported.value);
        rec.u64(exported.version);
        rec.u64(exported.lease_owner);
        rec.i64(exported.lease_expiry);
        disarm_lease(exported);
        entries_.erase(it);
        // Phase 2 — stamped transfer (HandoffStream): one CCS round mints
        // the transfer stamp, identical at every live replica of this ring,
        // and one survivor suffices if a representative crashes
        // mid-handoff.  The destination raises its causal floor to the
        // stamp before adoption, so a reading taken after adoption on the
        // destination exceeds the stamp minted here.
        const Micros ts = co_await handoff_.send(dst, std::move(rec).take());
        if (ts == kNoTime) {
          // Stamp stream busy (possible only with multiple concurrent
          // migrations): roll the release back and ask the client to retry.
          install(key, exported);
          reply = make_reply(KvStatus::kRetry);
          break;
        }
        reply = make_reply(KvStatus::kOk, "", exported.version, ts);
        break;
      }
      default:
        reply = make_reply(KvStatus::kBadRequest);
    }
  } catch (const CodecError&) {
    reply = make_reply(KvStatus::kBadRequest);
  }
  done(std::move(reply));
}

void KvStoreApp::adopt_handoff(const Bytes& record) {
  // Everything below is a pure function of (record, local state), identical
  // at every replica of the destination ring.
  BytesReader r(record);
  const std::string key = r.str();
  Entry e;
  e.value = r.str();
  e.version = r.u64();
  e.lease_owner = r.u64();
  e.lease_expiry = r.i64();
  // A concurrently created local entry loses to the transferred one, but
  // version never regresses for readers that watched the local copy.
  if (auto it = entries_.find(key); it != entries_.end() && it->second.version > e.version) {
    e.version = it->second.version;
  }
  // Fresh grant; the absolute group-time deadline transfers verbatim (the
  // floor guarantees our clock is causally AFTER the stamp, so the lease
  // can only shorten, never stretch past its source-side deadline).
  if (e.lease_owner != 0) e.lease_grant = ++grant_counter_;
  install(key, std::move(e));
}

std::uint64_t KvStoreApp::state_digest() const {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [k, e] : entries_) {
    h = hash_str(h, k);
    h = hash_str(h, e.value);
    h = hash_mix(h, e.version);
    h = hash_mix(h, e.lease_owner);
    h = hash_mix(h, static_cast<std::uint64_t>(e.lease_expiry));
  }
  return h;
}

namespace {
// Fixed fields of a checkpoint, then per entry: key and value (u32 length
// prefix each), version, lease owner, lease expiry and lease grant.
constexpr std::size_t kCheckpointHeaderBytes = 3 * 8 + 4;
constexpr std::size_t kEntryFixedBytes = 2 * 4 + 4 * 8;
}  // namespace

Bytes KvStoreApp::checkpoint() const {
  std::size_t size = kCheckpointHeaderBytes;
  for (const auto& [k, e] : entries_) size += kEntryFixedBytes + k.size() + e.value.size();
  BytesWriter w;
  w.reserve(size);
  w.u64(grant_counter_);
  w.u64(leases_expired_);
  w.u64(handoff_.seq());
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [k, e] : entries_) {
    w.str(k);
    w.str(e.value);
    w.u64(e.version);
    w.u64(e.lease_owner);
    w.i64(e.lease_expiry);
    w.u64(e.lease_grant);
  }
  return std::move(w).take();
}

struct KvStoreApp::SnapshotEntry {
  std::string_view key;
  std::string_view value;
  std::uint64_t version;
  std::uint64_t lease_owner;
  Micros lease_expiry;
  std::uint64_t lease_grant;

  [[nodiscard]] bool same_lease(const Entry& e) const {
    return e.lease_owner == lease_owner && e.lease_expiry == lease_expiry &&
           e.lease_grant == lease_grant;
  }
  [[nodiscard]] Entry entry() const {
    return Entry{std::string(value), version, lease_owner, lease_expiry, lease_grant};
  }
};

void KvStoreApp::restore(const Bytes& state) {
  // Parse the whole checkpoint before touching any member: a malformed one
  // throws CodecError here and leaves the store as it was.
  BytesReader r(state);
  const std::uint64_t grant_counter = r.u64();
  const std::uint64_t leases_expired = r.u64();
  const std::uint64_t handoff_seq = r.u64();
  const auto n = r.u32();
  std::vector<SnapshotEntry> snap;
  // Cap the reserve by the bytes actually present so a lying count cannot
  // trigger a huge allocation before the first read throws.
  snap.reserve(std::min<std::size_t>(n, r.remaining() / kEntryFixedBytes));
  bool sorted = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    SnapshotEntry& s = snap.emplace_back();
    s.key = r.str_view();
    s.value = r.str_view();
    s.version = r.u64();
    s.lease_owner = r.u64();
    s.lease_expiry = r.i64();
    s.lease_grant = r.u64();
    sorted = sorted && (i == 0 || snap[i - 1].key < s.key);
  }

  grant_counter_ = grant_counter;
  leases_expired_ = leases_expired;
  handoff_.restore_seq(handoff_seq);
  // A checkpoint() lists its keys in strictly increasing order, and the
  // primary's next checkpoint differs from the last in a few entries, so
  // merge in place.  A snapshot no checkpoint() writes (keys out of order
  // or repeated, two leases in one slot) is installed into an empty store
  // one entry at a time, in snapshot order, as a fresh replica would.
  if (sorted && merge(snap)) return;
  entries_.clear();
  leases_.clear();
  for (const SnapshotEntry& s : snap) {
    install(std::string(s.key), s.entry());  // group-time deadlines transfer verbatim
  }
}

bool KvStoreApp::merge(std::span<const SnapshotEntry> snap) {
  // The index always holds a subset of the live leases' slots, so it is
  // exact iff it holds as many as there are live leases.  Count them on
  // the way past, before each is changed.
  const std::size_t armed_before = leases_.size();
  std::size_t leased_before = 0;
  bool armed_all = true;
  auto it = entries_.begin();
  const auto drop = [&] {
    leased_before += it->second.lease_owner != 0 ? 1 : 0;
    disarm_lease(it->second);
    it = entries_.erase(it);
  };
  for (const SnapshotEntry& s : snap) {
    while (it != entries_.end() && it->first < s.key) drop();
    if (it == entries_.end() || it->first != s.key) {
      const auto at = entries_.emplace_hint(it, std::string(s.key), s.entry());
      armed_all = arm_lease(at->first, at->second) && armed_all;
      continue;
    }
    Entry& e = it->second;
    leased_before += e.lease_owner != 0 ? 1 : 0;
    if (e.value != s.value) e.value.assign(s.value);
    e.version = s.version;
    if (!s.same_lease(e)) {
      disarm_lease(e);
      e.lease_owner = s.lease_owner;
      e.lease_expiry = s.lease_expiry;
      e.lease_grant = s.lease_grant;
      armed_all = arm_lease(it->first, e) && armed_all;
    }
    ++it;
  }
  while (it != entries_.end()) drop();
  return armed_all && armed_before == leased_before;
}

std::uint32_t kv_shard_of(const gcs::Message& m) {
  // Route by key so each key's operations stay on one shard (and therefore
  // in one deterministic stream).
  try {
    BytesReader r(m.payload);
    (void)r.u8();
    const std::string key = r.str();
    std::uint32_t h = 2166136261u;
    for (unsigned char c : key) {
      h ^= c;
      h *= 16777619u;
    }
    return h;
  } catch (const CodecError&) {
    return 0;
  }
}

replication::ReplicaFactory kv_store_factory(KvStoreApp::Options opt) {
  return [opt](replication::ReplicaContext& ctx) {
    return std::make_unique<KvStoreApp>(ctx, opt);
  };
}

}  // namespace cts::app
