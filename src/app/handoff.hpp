// The cross-ring handoff stream of a sharded replicated app.
//
// KvStoreApp (lease transfer) and SessionManagerApp (session migration)
// move a record between rings with one two-phase protocol
// (doc/SHARDING.md): the source ring releases the record at an agreed
// position of its request stream, one CCS round mints the transfer stamp,
// and the stamped record is multicast to the owning ring's cross-ring
// group, which raises its causal floor to the stamp and adopts the record
// in agreed order.
//
// HandoffStream is that protocol without the record: the ring's
// CausalMessenger, the per-ring sequence number (the app checkpoints it so
// it survives failover), the `<prefix>.handoffs_{out,in,rejected}` counters
// and the kHandoffExport / kHandoffAdopt trace events.
#pragma once

#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "app/topology.hpp"
#include "cts/multigroup.hpp"
#include "replication/replica.hpp"

namespace cts::app {

class HandoffStream {
 public:
  struct Options {
    /// Sharded deployment (nullptr = single-ring: no stream is opened and
    /// the app behaves exactly as unsharded).  The map must outlive the
    /// app.  Handoff-enabled managers must run with shards = 1 — the stamp
    /// stream is per ring, not per processing shard.
    const ShardMap* shard_map = nullptr;
    std::size_t ring = 0;
  };
  /// Installs one adopted record; throws CodecError if it is malformed.
  using AdoptFn = std::function<void(const Bytes& record)>;
  /// Which of the map's per-ring stamp streams to use.
  using StreamOf = ThreadId (ShardMap::*)(std::size_t) const;

  /// Opens the stream when `opt.shard_map` is set and the replica has a GCS
  /// endpoint.  Its group is the ring's cross-ring ingress group, so
  /// outgoing stamps carry this ring's identity as src_grp and records
  /// addressed to the ring (re-originated by the gateway) reach `adopt`.
  HandoffStream(replication::ReplicaContext& ctx, Options opt, StreamOf stream_of,
                ConnectionId conn, std::string_view counter_prefix, AdoptFn adopt)
      : gcs_(ctx.gcs), replica_(ctx.replica), opt_(opt), conn_(conn),
        prefix_(counter_prefix), adopt_(std::move(adopt)) {
    if (opt_.shard_map == nullptr || gcs_ == nullptr) return;
    messenger_ = std::make_unique<ccs::CausalMessenger>(
        *gcs_, ctx.time, opt_.shard_map->cross_group(opt_.ring),
        (opt_.shard_map->*stream_of)(opt_.ring));
    messenger_->subscribe(conn_, [this](const gcs::Message& m, Micros ts, const Bytes& body) {
      on_delivered(m, ts, body);
    });
  }
  HandoffStream(const HandoffStream&) = delete;
  HandoffStream& operator=(const HandoffStream&) = delete;

  /// True if records can go to ring `dst`: the stream is open and `dst` is
  /// another ring of the map.
  [[nodiscard]] bool routes_to(std::uint32_t dst) const {
    return messenger_ && dst < opt_.shard_map->rings() && dst != opt_.ring;
  }

  /// `Micros ts = co_await stream.send(dst, record);` — takes the next
  /// sequence number, mints the transfer stamp (identical at every live
  /// replica of this ring, so duplicate suppression collapses the copies)
  /// and multicasts the record to ring `dst`.  kNoTime means the stamp
  /// stream was busy: nothing was sent, the sequence number is given back,
  /// and the caller rolls its release back.  Requires routes_to(dst).
  struct SendAwaiter {
    HandoffStream& stream;
    std::uint32_t dst;
    ccs::CausalMessenger::StampAwaiter stamp;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { stamp.await_suspend(h); }
    Micros await_resume() {
      const Micros ts = stamp.await_resume();
      stream.on_sent(dst, stamp.seq, ts);
      return ts;
    }
  };
  [[nodiscard]] SendAwaiter send(std::uint32_t dst, Bytes record) {
    const MsgSeqNum seq = ++seq_;
    return SendAwaiter{*this, dst,
                       messenger_->send(opt_.shard_map->cross_group(dst), conn_, seq,
                                        std::move(record))};
  }

  /// The last sequence number used; part of the app's checkpoint.
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  void restore_seq(std::uint64_t seq) { seq_ = seq; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t adopted() const { return adopted_; }

 private:
  // Handoffs are per-migration events (a handful per run), so the by-name
  // counter lookups below are deliberate — no handle cache.
  void on_sent(std::uint32_t dst, MsgSeqNum seq, Micros ts) {
    if (ts == kNoTime) {
      --seq_;
      return;
    }
    ++sent_;
    obs::Recorder& rec = gcs_->recorder();
    ++rec.counter(prefix_ + ".handoffs_out");
    rec.event(obs::EventKind::kHandoffExport, gcs_->node_id(), replica_, messenger_->stream().value,
              static_cast<std::int64_t>(seq), static_cast<std::int64_t>(dst));
  }

  /// Runs at every replica of this ring in agreed order, with the causal
  /// floor already raised to `stamp` — so the next clock reading here
  /// exceeds the transfer stamp minted at the source.
  void on_delivered(const gcs::Message& m, Micros stamp, const Bytes& record) {
    obs::Recorder& rec = gcs_->recorder();
    try {
      adopt_(record);
    } catch (const CodecError&) {
      ++rec.counter(prefix_ + ".handoffs_rejected");
      return;
    }
    ++adopted_;
    ++rec.counter(prefix_ + ".handoffs_in");
    rec.event(obs::EventKind::kHandoffAdopt, gcs_->node_id(), replica_, m.hdr.tag.value,
              static_cast<std::int64_t>(m.hdr.seq), static_cast<std::int64_t>(stamp));
  }

  gcs::GcsEndpoint* gcs_;
  ReplicaId replica_;
  Options opt_;
  ConnectionId conn_;
  std::string prefix_;
  AdoptFn adopt_;
  std::unique_ptr<ccs::CausalMessenger> messenger_;  // null: single-ring
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t adopted_ = 0;
};

}  // namespace cts::app
