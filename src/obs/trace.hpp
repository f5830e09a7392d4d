// TraceLog: a bounded, deterministic log of typed protocol events.
//
// Every event is stamped with simulated time, so two runs with the same
// seed produce byte-identical traces — tests can assert on *behavior*
// ("no token retransmission happened in the loss-free run", "exactly one
// synchronizer won round k") instead of only on final state.
//
// Storage is an append-only byte log in fixed 64 KiB chunks.  Each event
// is encoded as
//
//   zigzag varint   at − previous event's at   (the first event's base is 0)
//   one byte        kind
//   varint          node + 1                   (kInvalid wraps to 0)
//   varint          replica + 1                (kInvalid wraps to 0)
//   zigzag varints  a, b, c
//
// An event never straddles two chunks, and chunks are never moved or
// copied once allocated.  On the protocol traces ctsim exports this is
// about 10 B per event instead of the 48 B of a TraceEvent, so a log at
// its default cap of 2^19 events holds about 5 MiB rather than 24 MiB.
// events() decodes on the fly; every exported byte is the same as if the
// TraceEvents had been stored verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cts::obs {

/// Typed protocol events, one per instrumented decision point.  The a/b/c
/// payload slots are event-specific; the meaning of each is documented at
/// the recording site and in EXPERIMENTS.md.
enum class EventKind : std::uint8_t {
  // net
  kNetDrop,            // a=src node, b=payload bytes
  kNetCorrupt,         // a=src node, b=payload bytes
  kNetPartition,       // a=group A size, b=group B size
  kNetHeal,
  // totem
  kTokenPass,          // a=token seq (all-received-up-to), b=ring id
  kTokenRetransmit,    // a=retransmission attempt count
  kMsgRetransmit,      // a=totem seq retransmitted
  kRingChange,         // a=ring id, b=member count, c=1 if primary component
  kWindowStall,        // a=queued messages, b=window budget
  // gcs
  kGcsDeliver,         // a=msg type, b=seq, c=connection id
  kGcsViewChange,      // a=group id, b=member count
  kGcsSendCancelled,   // a=msg type, b=seq (duplicate suppression)
  // cts / ccs
  kCcsRoundStart,      // a=thread id, b=round number
  kCcsRoundComplete,   // a=round number, b=winner replica, c=group clock us
  kSynchronizerWin,    // a=round number, b=thread id
  kCcsSendAvoided,     // a=thread id, b=round number (suppressed duplicate)
  kProposalResent,     // a=thread id, b=round number (new-primary re-issue)
  kSkewSample,         // a=signed skew vs reference us, b=round number
  kCcsReentrantCall,   // a=thread id (always-on invariant violation)
  // replication
  kCheckpointTaken,    // a=checkpoint payload bytes
  kCheckpointApplied,  // a=requests covered by the checkpoint
  kStateTransfer,      // a=log entries shipped
  kFailover,           // a=promotion count at this replica
  kRecoveryStart,
  kRecoveryComplete,   // a=requests replayed or queued
  // oracle
  kOracleViolation,    // a=OrderingOracle::Check that fired
  // multi-group / sharding
  kStampRejected,      // a=connection id, b=payload bytes (malformed stamp)
  kGatewayForward,     // a=origin ring, b=owning ring
  kHandoffExport,      // a=stamp stream tag, b=handoff seq (source release)
  kHandoffAdopt,       // a=stamp stream tag, b=handoff seq (dest adoption)
  // Appended after the rest so that every other kind keeps its number.
  kTotemRecoveryGaveUp,  // a=contiguous old-ring aru, b=recovery target, c=old ring id
};

[[nodiscard]] const char* to_string(EventKind k);

struct TraceEvent {
  Micros at = 0;
  EventKind kind{};
  std::uint32_t node = NodeId::kInvalid;
  std::uint32_t replica = ReplicaId::kInvalid;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Append-only event log with a hard cap: once `max_events` are held, new
/// events are counted in dropped() but not stored, so a long bench cannot
/// grow without bound.  The cap keeps the *head* of the run.  Tests that
/// assert on the trace should also assert dropped() == 0.
class TraceLog {
 public:
  /// Bytes per storage chunk.
  static constexpr std::size_t kChunkBytes = std::size_t{64} * 1024;

  /// Decoding cursor over the stored events, in record order.  It yields
  /// decoded copies; record() and clear() invalidate it.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    Iterator() = default;

    const TraceEvent& operator*() const { return ev_; }
    const TraceEvent* operator->() const { return &ev_; }
    Iterator& operator++() {
      if (++index_ < log_->size_) decode();
      return *this;
    }
    void operator++(int) { ++*this; }
    friend bool operator==(const Iterator& x, const Iterator& y) { return x.index_ == y.index_; }

   private:
    friend class TraceLog;
    Iterator(const TraceLog* log, std::size_t index) : log_(log), index_(index) {
      if (index_ < log_->size_) decode();
    }
    void decode();

    const TraceLog* log_ = nullptr;
    std::size_t index_ = 0;  // ordinal of ev_
    std::size_t chunk_ = 0;  // where the next event starts
    std::size_t offset_ = 0;
    TraceEvent ev_;
  };

  /// The stored events as a range; see Iterator.
  class Range {
   public:
    [[nodiscard]] Iterator begin() const { return Iterator(log_, 0); }
    [[nodiscard]] Iterator end() const { return Iterator(log_, log_->size_); }
    [[nodiscard]] std::size_t size() const { return log_->size_; }
    [[nodiscard]] bool empty() const { return log_->size_ == 0; }

   private:
    friend class TraceLog;
    explicit Range(const TraceLog* log) : log_(log) {}
    const TraceLog* log_;
  };

  explicit TraceLog(std::size_t max_events = 1u << 19) : max_events_(max_events) {}
  // cur_ and end_ point into chunks_, so a moved-from log would still
  // write into the chunk it gave away.  No owner moves its log.
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  void record(Micros at, EventKind kind, std::uint32_t node, std::uint32_t replica,
              std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0) {
    ++recorded_;
    if (size_ >= max_events_) {
      ++dropped_;
      return;
    }
    if (static_cast<std::size_t>(end_ - cur_) < kMaxEventBytes) add_chunk();
    std::uint8_t* p = cur_;
    p = put_varint(p, zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(at) -
                                                       static_cast<std::uint64_t>(last_at_))));
    *p++ = static_cast<std::uint8_t>(kind);
    p = put_varint(p, static_cast<std::uint32_t>(node + 1u));
    p = put_varint(p, static_cast<std::uint32_t>(replica + 1u));
    p = put_varint(p, zigzag(a));
    p = put_varint(p, zigzag(b));
    p = put_varint(p, zigzag(c));
    cur_ = p;
    last_at_ = at;
    ++size_;
  }

  [[nodiscard]] Range events() const { return Range(this); }

  /// Total record() calls, including dropped ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Events lost to the cap.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Number of stored events of the given kind.
  [[nodiscard]] std::size_t count(EventKind kind) const;

  /// All stored events of the given kind, in record order.
  [[nodiscard]] std::vector<TraceEvent> select(EventKind kind) const;

  /// Forget every event and reset the counters.  The first chunk stays
  /// allocated, so a log drained and refilled in slices stops allocating.
  void clear() {
    if (!chunks_.empty()) {
      chunks_.resize(1);
      cur_ = chunks_[0].get();
      end_ = cur_ + kChunkBytes;
    }
    last_at_ = 0;
    size_ = 0;
    recorded_ = 0;
    dropped_ = 0;
  }

  /// One JSON object per line:
  ///   {"at": 1234, "kind": "token_pass", "node": 0, "replica": null,
  ///    "a": 7, "b": 1, "c": 0}
  [[nodiscard]] std::string to_jsonl() const;

  /// Write to_jsonl() to `path`.  Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  // Worst case: a 10-byte delta, the kind byte, two 5-byte ids and three
  // 10-byte payloads.  A chunk with less room left than this is closed.
  static constexpr std::size_t kMaxEventBytes = 10 + 1 + 5 + 5 + 3 * 10;

  static std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
  }
  static std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
  }
  void add_chunk();

  std::size_t max_events_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::uint8_t* cur_ = nullptr;  // write position in chunks_.back()
  std::uint8_t* end_ = nullptr;  // end of chunks_.back()
  Micros last_at_ = 0;           // delta base for the next event
  std::size_t size_ = 0;         // stored events
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cts::obs
