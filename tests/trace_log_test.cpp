// Tests for TraceLog's chunked delta-varint storage.
//
//   * Round-trip fuzz: random event streams recorded into a TraceLog and
//     into a plain std::vector<TraceEvent> reference with the same cap
//     must agree on events(), count(), select(), to_jsonl(), recorded()
//     and dropped() — across extreme payloads, time going backwards,
//     kInvalid ids, every EventKind, chunk boundaries, interleaved clear()
//     and caps of 0, 1, 4 and 2^19.
//   * Memory guard: this binary replaces the global operator new/delete
//     with versions that count calls and live bytes (as alloc_test.cpp
//     does), and checks that a ctsim-shaped stream costs at most 16 heap
//     bytes per event, that record() allocates only when it opens a chunk,
//     and that a drain-and-refill cycle reuses the chunk clear() keeps.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_chunk_allocs{0};  // exactly TraceLog::kChunkBytes
std::atomic<std::int64_t> g_live_bytes{0};

// Every block carries its size in a header so operator delete can
// subtract it from the live total.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (n == cts::obs::TraceLog::kChunkBytes) g_chunk_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  auto* size = static_cast<std::size_t*>(std::malloc(n + kHeader));
  if (!size) throw std::bad_alloc();
  *size = n;
  return static_cast<unsigned char*>(static_cast<void*>(size)) + kHeader;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  auto* size = static_cast<std::size_t*>(static_cast<void*>(static_cast<unsigned char*>(p) - kHeader));
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*size), std::memory_order_relaxed);
  std::free(size);
}

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t chunks;
  std::int64_t live;
};

AllocSnapshot snap() { return {g_alloc_calls.load(), g_chunk_allocs.load(), g_live_bytes.load()}; }

}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace cts::obs {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr int kKinds = static_cast<int>(EventKind::kTotemRecoveryGaveUp) + 1;

/// The storage TraceLog replaced: a capped vector.  to_jsonl() is written
/// out independently so a decoding bug cannot hide behind shared code.
struct ReferenceLog {
  explicit ReferenceLog(std::size_t cap) : max_events(cap) {}

  void record(const TraceEvent& e) {
    ++recorded;
    if (events.size() >= max_events) {
      ++dropped;
      return;
    }
    events.push_back(e);
  }
  void clear() {
    events.clear();
    recorded = 0;
    dropped = 0;
  }
  [[nodiscard]] std::vector<TraceEvent> select(EventKind kind) const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }
  [[nodiscard]] std::string to_jsonl() const {
    std::ostringstream out;
    for (const TraceEvent& e : events) {
      out << "{\"at\": " << e.at << ", \"kind\": \"" << to_string(e.kind) << "\", \"node\": ";
      if (e.node == NodeId::kInvalid) out << "null";
      else out << e.node;
      out << ", \"replica\": ";
      if (e.replica == ReplicaId::kInvalid) out << "null";
      else out << e.replica;
      out << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"c\": " << e.c << "}\n";
    }
    return out.str();
  }

  std::size_t max_events;
  std::vector<TraceEvent> events;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};

void record(TraceLog& log, ReferenceLog& ref, const TraceEvent& e) {
  log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
  ref.record(e);
}

std::vector<TraceEvent> decoded(const TraceLog& log) {
  const auto evs = log.events();
  return {evs.begin(), evs.end()};
}

/// The checks every comparison makes: counters and the decoded events.
void expect_same_events(const TraceLog& log, const ReferenceLog& ref) {
  ASSERT_EQ(log.recorded(), ref.recorded);
  ASSERT_EQ(log.dropped(), ref.dropped);
  ASSERT_EQ(log.events().size(), ref.events.size());
  ASSERT_EQ(log.events().empty(), ref.events.empty());
  const std::vector<TraceEvent> got = decoded(log);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], ref.events[i]) << "event " << i << " of " << got.size();
  }
}

/// Everything: also count() and select() of every kind, and to_jsonl().
void expect_same(const TraceLog& log, const ReferenceLog& ref) {
  expect_same_events(log, ref);
  for (int k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::vector<TraceEvent> want = ref.select(kind);
    ASSERT_EQ(log.count(kind), want.size()) << to_string(kind);
    ASSERT_EQ(log.select(kind), want) << to_string(kind);
  }
  ASSERT_EQ(log.to_jsonl(), ref.to_jsonl());
}

/// Event generator biased toward the encoding's edge cases.
class Fuzz {
 public:
  explicit Fuzz(std::uint64_t seed) : rng_(seed) {}

  TraceEvent next() {
    TraceEvent e;
    at_ = next_at();
    e.at = at_;
    e.kind = static_cast<EventKind>(rng_.below(kKinds));
    e.node = id();
    e.replica = id();
    e.a = payload();
    e.b = payload();
    e.c = payload();
    return e;
  }

  /// The worst case for the encoder: every field at its widest.
  TraceEvent widest() {
    TraceEvent e;
    at_ = (at_ == kMax) ? kMin : kMax;  // a full-width delta either way
    e.at = at_;
    e.kind = static_cast<EventKind>(rng_.below(kKinds));
    e.node = NodeId::kInvalid - 1;
    e.replica = ReplicaId::kInvalid - 1;
    e.a = kMin;
    e.b = kMax;
    e.c = kMin;
    return e;
  }

 private:
  Micros next_at() {
    switch (rng_.below(8)) {
      case 0: return wrapping_add(at_, -rng_.range(0, 1000));  // backwards
      case 1: return rng_.chance(0.5) ? kMin : kMax;
      case 2: return static_cast<Micros>(rng_.next());
      default: return wrapping_add(at_, rng_.range(0, 300));
    }
  }
  static Micros wrapping_add(Micros at, std::int64_t d) {
    return static_cast<Micros>(static_cast<std::uint64_t>(at) + static_cast<std::uint64_t>(d));
  }
  std::uint32_t id() {
    switch (rng_.below(6)) {
      case 0: return NodeId::kInvalid;
      case 1: return NodeId::kInvalid - 1;
      case 2: return static_cast<std::uint32_t>(rng_.next());
      default: return static_cast<std::uint32_t>(rng_.below(20));
    }
  }
  std::int64_t payload() {
    static constexpr std::array<std::int64_t, 7> kEdges = {0, 1, -1, kMin, kMax, kMin + 1, kMax - 1};
    switch (rng_.below(4)) {
      case 0: return kEdges[rng_.below(kEdges.size())];
      case 1: return static_cast<std::int64_t>(rng_.next());
      default: return rng_.range(-5000, 5000);
    }
  }

  Rng rng_;
  Micros at_ = 0;
};

TEST(TraceLogFuzz, MatchesVectorReferenceAtSmallCaps) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(cap);
    Fuzz fuzz(cap + 11);
    TraceLog log(cap);
    ReferenceLog ref(cap);
    expect_same(log, ref);
    for (int round = 0; round < 50; ++round) {
      const int n = round % 7;
      for (int i = 0; i < n; ++i) record(log, ref, fuzz.next());
      expect_same(log, ref);
      if (round % 3 == 2) {
        log.clear();
        ref.clear();
        expect_same(log, ref);
      }
    }
  }
}

TEST(TraceLogFuzz, CoversEveryKind) {
  TraceLog log;
  ReferenceLog ref(1u << 19);
  Fuzz fuzz(3);
  for (int k = 0; k < kKinds; ++k) {
    TraceEvent e = fuzz.next();
    e.kind = static_cast<EventKind>(k);
    record(log, ref, e);
  }
  expect_same(log, ref);
  for (int k = 0; k < kKinds; ++k) EXPECT_EQ(log.count(static_cast<EventKind>(k)), 1u);
}

TEST(TraceLogFuzz, StreamsSpanChunkBoundariesWithInterleavedClear) {
  // ~51 B per widest event: 4000 of them fill three chunks and part of a
  // fourth; the random ones land anywhere in a chunk's tail.
  TraceLog log;
  ReferenceLog ref(1u << 19);
  Fuzz fuzz(42);
  Rng rng(7);
  for (int phase = 0; phase < 6; ++phase) {
    SCOPED_TRACE(phase);
    const int n = 2000 + static_cast<int>(rng.below(4000));
    for (int i = 0; i < n; ++i) {
      record(log, ref, (phase % 2 == 0) ? fuzz.widest() : fuzz.next());
      if (i % 1500 == 1499) expect_same_events(log, ref);
    }
    expect_same(log, ref);
    log.clear();
    ref.clear();
    expect_same(log, ref);
  }
}

TEST(TraceLogFuzz, DefaultCapKeepsTheHead) {
  // The default cap of 2^19, overrun: the head is kept, the rest counted.
  // The per-kind queries and to_jsonl() are compared in full at the
  // smaller sizes above; at this size they would only cost time.
  constexpr std::size_t kCap = std::size_t{1} << 19;
  TraceLog log;
  ReferenceLog ref(kCap);
  Fuzz fuzz(20031);
  for (std::size_t i = 0; i < kCap + 1000; ++i) record(log, ref, fuzz.next());
  expect_same_events(log, ref);
  EXPECT_EQ(log.count(EventKind::kTokenPass), ref.select(EventKind::kTokenPass).size());
  EXPECT_EQ(log.dropped(), 1000u);
  log.clear();
  ref.clear();
  for (int i = 0; i < 100; ++i) record(log, ref, fuzz.next());
  expect_same(log, ref);
}

// --- Memory guard ---------------------------------------------------------------

/// A stream shaped like a ctsim export: ~40% token passes, ~25% GCS
/// deliveries, the rest CCS rounds and duplicate suppression, with small
/// time steps, a 3-node ring and growing sequence numbers.
class CtsimMix {
 public:
  TraceEvent next() {
    TraceEvent e;
    at_ += static_cast<Micros>(rng_.below(60));
    e.at = at_;
    const std::uint64_t pick = rng_.below(100);
    const auto node = static_cast<std::uint32_t>(rng_.below(3));
    if (pick < 40) {
      e.kind = EventKind::kTokenPass;
      e.node = node;
      e.a = static_cast<std::int64_t>(++aru_ / 3);
      e.b = 256;
    } else if (pick < 65) {
      e.kind = EventKind::kGcsDeliver;
      e.node = node;
      e.replica = node;
      e.a = 1 + static_cast<std::int64_t>(rng_.below(5));
      e.b = static_cast<std::int64_t>(aru_ / 9);
      e.c = 1001;
    } else if (pick < 75) {
      e.kind = EventKind::kGcsSendCancelled;
      e.node = node;
      e.replica = node;
      e.a = 5;
      e.b = static_cast<std::int64_t>(aru_ / 9);
    } else if (pick < 85) {
      e.kind = EventKind::kCcsRoundStart;
      e.replica = node;
      e.a = 1;
      e.b = static_cast<std::int64_t>(aru_ / 20);
    } else if (pick < 95) {
      e.kind = EventKind::kCcsRoundComplete;
      e.node = node;
      e.replica = node;
      e.a = static_cast<std::int64_t>(aru_ / 20);
      e.c = 1'056'326'399'783'721 + at_;
    } else {
      e.kind = EventKind::kSkewSample;
      e.replica = node;
      e.a = rng_.range(-300, 300);
      e.b = static_cast<std::int64_t>(aru_ / 20);
    }
    return e;
  }

 private:
  Rng rng_{5};
  Micros at_ = 200'000;
  std::uint64_t aru_ = 0;
};

TEST(TraceLogMemory, CtsimMixCostsAtMostSixteenBytesPerEvent) {
  constexpr std::size_t kEvents = 200'000;
  CtsimMix mix;
  std::vector<TraceEvent> stream;
  stream.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) stream.push_back(mix.next());

  const AllocSnapshot before = snap();
  {
    TraceLog log;
    for (const TraceEvent& e : stream) {
      const AllocSnapshot pre = snap();
      log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
      const AllocSnapshot post = snap();
      // Opening a chunk is the only reason to allocate: the chunk itself
      // and, at most, growth of the chunk-pointer array.
      if (post.calls != pre.calls) {
        ASSERT_EQ(post.chunks - pre.chunks, 1u);
        ASSERT_LE(post.calls - pre.calls, 2u);
      }
    }
    const AllocSnapshot filled = snap();
    const auto retained = static_cast<double>(filled.live - before.live);
    EXPECT_LE(retained / kEvents, 16.0) << "retained " << retained << " bytes";
    EXPECT_EQ(log.events().size(), kEvents);
    EXPECT_EQ(log.dropped(), 0u);
  }
  EXPECT_EQ(snap().live, before.live) << "the log leaked";
}

TEST(TraceLogMemory, DrainAndRefillReusesTheKeptChunk) {
  // perfbench drains the log every 50 ms of simulated time: a slice of a
  // few thousand events fits one chunk, so after the first fill the
  // cycle allocates nothing.
  CtsimMix mix;
  TraceLog log;
  auto fill = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const TraceEvent e = mix.next();
      log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
    }
  };
  fill(3000);
  log.clear();
  const AllocSnapshot before = snap();
  for (int cycle = 0; cycle < 20; ++cycle) {
    fill(3000);
    EXPECT_EQ(log.events().size(), 3000u);
    log.clear();
  }
  EXPECT_EQ(snap().calls - before.calls, 0u);

  // A slice larger than one chunk allocates only the chunks past the
  // first, and clear() gives them back.
  fill(40'000);
  const AllocSnapshot big = snap();
  EXPECT_GT(big.chunks - before.chunks, 0u);
  log.clear();
  EXPECT_LT(snap().live - before.live, static_cast<std::int64_t>(TraceLog::kChunkBytes));
}

}  // namespace
}  // namespace cts::obs
