// GatewayRouter: explicit shard-aware request routing at each ring's
// gateway node — the ShardMap made operational (doc/SHARDING.md).
//
// Before this layer existed, inter-ring traffic was ad-hoc: ring r's node 0
// shipped whatever its cross-ring subscriptions delivered, and a client
// request for a key owned elsewhere simply executed on the wrong ring.  The
// router makes the ownership decision explicit: every client request is
// checked against the ShardMap's keyspace partition, requests for keys this
// ring owns go straight to the local replicated server, and misdirected
// requests are forwarded over the inter-island link to the owning ring's
// gateway, which invokes them locally and relays the reply back.
//
// Link frames are typed (LinkFrameKind) so one wire carries three kinds of
// traffic without ambiguity:
//   kXGroup      — an encoded GCS message for a remote ring's cross-ring
//                  group (the causally stamped handoff/broadcast path);
//   kFwdRequest  — a misdirected client request, tagged with the origin
//                  ring and a forwarding id;
//   kFwdReply    — the owning ring's reply, routed back by forwarding id.
//
// Determinism: a router instance is ring-local state, touched only from its
// ring's island worker (route() runs in ring-local simulation context;
// on_fwd_* run in the ring's link-ingress callback), so serial and parallel
// coordinator schedules see identical router behavior.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include <coroutine>

#include "app/topology.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "common/unique_fn.hpp"
#include "obs/recorder.hpp"
#include "orb/rmi_client.hpp"
#include "sim/task_scope.hpp"

namespace cts::app {

/// First byte of every inter-island link frame.
enum class LinkFrameKind : std::uint8_t {
  kXGroup = 1,      // rest of frame: GcsEndpoint::encode(m)
  kFwdRequest = 2,  // u32 origin ring, u64 fwd id, bytes request
  kFwdReply = 3,    // u64 fwd id, bytes reply
};

inline Bytes frame_xgroup(const Bytes& encoded) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(LinkFrameKind::kXGroup));
  w.raw(encoded);
  return std::move(w).take();
}

inline Bytes frame_fwd_request(std::uint32_t origin_ring, std::uint64_t fwd_id,
                               const Bytes& request) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(LinkFrameKind::kFwdRequest));
  w.u32(origin_ring);
  w.u64(fwd_id);
  w.bytes(request);
  return std::move(w).take();
}

inline Bytes frame_fwd_reply(std::uint64_t fwd_id, const Bytes& reply) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(LinkFrameKind::kFwdReply));
  w.u64(fwd_id);
  w.bytes(reply);
  return std::move(w).take();
}

class GatewayRouter {
 public:
  using ReplyFn = UniqueFn<void(const Bytes&)>;
  /// Ship a typed frame to another ring's gateway (the Archipelago wraps
  /// its InterIslandLink here).
  using SendFrameFn = UniqueFn<void(std::size_t dst_ring, Bytes frame)>;

  /// `scope` is the gateway node's lifecycle scope: awaiter resume
  /// trampolines are registered there so they die with the node.
  GatewayRouter(const ShardMap& map, std::size_t ring, orb::RmiClient& client,
                sim::TaskScope& scope, obs::Recorder& rec, SendFrameFn send)
      : map_(map),
        ring_(ring),
        client_(&client),
        scope_(&scope),
        rec_(rec),
        send_(std::move(send)) {}

  /// Route a client request.  If the ShardMap says this ring owns the key
  /// (or the request is not a recognizable keyed request — STATS, COUNT,
  /// and friends are served locally), invoke the local replicated server;
  /// otherwise count the forward, send it to the owning ring, and relay
  /// its reply to `done`.
  void route(Bytes request, ReplyFn done) {
    const auto owner = map_.owner_of_kv_request(request);
    if (!owner.has_value() || *owner == ring_) {
      client_->invoke(std::move(request), std::move(done));
      return;
    }
    ++c_forwards_;
    const std::uint64_t id = ++next_fwd_id_;
    rec_.event(obs::EventKind::kGatewayForward, NodeId{0}, ReplicaId{},
               static_cast<std::int64_t>(ring_), static_cast<std::int64_t>(*owner),
               static_cast<std::int64_t>(id));
    pending_[id] = std::move(done);
    send_(*owner, frame_fwd_request(static_cast<std::uint32_t>(ring_), id, request));
  }

  /// Awaitable form: `Bytes reply = co_await router.call(request);`.
  /// Mirrors RmiClient::call — the completion callback owns the parked
  /// frame, so an abandoned router (teardown mid-forward) destroys rather
  /// than leaks the caller.
  struct CallAwaiter {
    GatewayRouter& router;
    Bytes request;
    Bytes reply;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      router.route(std::move(request),
                   [this, guard = sim::Simulator::CoroResume{h}](const Bytes& r) mutable {
                     reply = r;
                     router.scope_->after(0, std::move(guard));
                   });
    }
    [[nodiscard]] Bytes await_resume() { return std::move(reply); }
  };
  [[nodiscard]] CallAwaiter call(Bytes request) {
    return CallAwaiter{*this, std::move(request), {}};
  }

  /// Link ingress: a misdirected request forwarded from ring `origin`.
  /// Invoke it on this ring's replicated server and route the reply back.
  void on_fwd_request(std::uint32_t origin_ring, std::uint64_t fwd_id, Bytes request) {
    ++c_fwd_served_;
    client_->invoke(std::move(request),
                    [this, origin_ring, fwd_id](const Bytes& reply) {
                      send_(origin_ring, frame_fwd_reply(fwd_id, reply));
                    });
  }

  /// Link ingress: the owning ring's reply for a forward we originated.
  void on_fwd_reply(std::uint64_t fwd_id, const Bytes& reply) {
    const auto it = pending_.find(fwd_id);
    if (it == pending_.end()) return;  // duplicate or post-teardown reply
    ReplyFn done = std::move(it->second);
    pending_.erase(it);
    if (done) done(reply);
  }

  [[nodiscard]] std::size_t ring() const { return ring_; }

 private:
  const ShardMap& map_;
  std::size_t ring_;
  orb::RmiClient* client_;
  sim::TaskScope* scope_;
  obs::Recorder& rec_;
  SendFrameFn send_;
  std::map<std::uint64_t, ReplyFn> pending_;
  std::uint64_t next_fwd_id_ = 0;
  // route()/on_fwd_request() run per client request and must not pay a
  // by-name map lookup.
  obs::Counter& c_forwards_ = rec_.counter("gateway.forwards");
  obs::Counter& c_fwd_served_ = rec_.counter("gateway.fwd_served");
};

}  // namespace cts::app
