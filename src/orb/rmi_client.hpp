// Minimal RMI layer — the e*ORB/CORBA stand-in.
//
// A client (possibly unreplicated, like the paper's measurement client)
// invokes remote methods on a replicated server object.  The invocation is
// a kUserRequest multicast on the connection (client group → server group);
// the reply is the first kUserReply with the matching sequence number —
// duplicate replies from active replicas are suppressed by the GCS layer.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "common/unique_fn.hpp"
#include "gcs/gcs.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::orb {

/// Client-side stub for a replicated server group.
class RmiClient {
 public:
  /// Completion callbacks are move-only (UniqueFn) so the coroutine
  /// awaiters below can park their frame inside with destroy-on-drop
  /// semantics: a client torn down with invocations in flight destroys the
  /// suspended callers instead of leaking them.
  using ReplyFn = UniqueFn<void(const Bytes&)>;
  using TimeoutFn = UniqueFn<void()>;
  /// Single-owner completion for timed invocations: called with the reply,
  /// or with nullptr on timeout.  One callable owns the parked frame, so
  /// there is exactly one owner no matter which way the race resolves.
  using CompleteFn = UniqueFn<void(const Bytes*)>;

  /// `client_group` is this client's own (usually singleton) group; replies
  /// are addressed to it.  `conn` identifies the client→server connection.
  RmiClient(sim::Simulator& sim, gcs::GcsEndpoint& gcs, GroupId client_group,
            GroupId server_group, ConnectionId conn);

  RmiClient(const RmiClient&) = delete;
  RmiClient& operator=(const RmiClient&) = delete;

  ~RmiClient();

  /// Fire an invocation; `on_reply` runs when the (first) reply arrives.
  /// Returns the invocation's sequence number.
  ///
  /// With `timeout_us` > 0 this is a *timed* remote method invocation (one
  /// of the paper's motivating clock uses): if no reply arrives in time,
  /// `on_timeout` fires instead and a late reply is discarded.  The timer
  /// here is the CLIENT's — the client is unreplicated, so its local clock
  /// is safe to use; replicated SERVERS must use group-clock deadlines
  /// (see app/kv_store.hpp).
  MsgSeqNum invoke(Bytes request, ReplyFn on_reply, Micros timeout_us = 0,
                   TimeoutFn on_timeout = nullptr);

  /// Single-callback form: `complete` receives &reply, or nullptr on
  /// timeout.  The awaiters use this so exactly one callable ever owns the
  /// parked coroutine frame.
  MsgSeqNum invoke_complete(Bytes request, CompleteFn complete, Micros timeout_us = 0);

  /// Awaitable form: `Bytes reply = co_await client.call(request);`
  /// The completion callback owns the parked frame (CoroResume guard), and
  /// the resume trampoline is owned by the client node's lifecycle scope.
  struct CallAwaiter {
    RmiClient& client;
    Bytes request;
    Bytes reply;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      client.invoke_complete(std::move(request),
                             [this, guard = sim::Simulator::CoroResume{h}](const Bytes* r) mutable {
                               reply = *r;  // never null without a timeout
                               client.gcs_.scope().after(0, std::move(guard));
                             });
    }
    Bytes await_resume() { return std::move(reply); }
  };
  [[nodiscard]] CallAwaiter call(Bytes request) {
    return CallAwaiter{*this, std::move(request), {}};
  }

  /// Awaitable timed invocation; resumes with nullopt on timeout.
  struct TimedCallAwaiter {
    RmiClient& client;
    Bytes request;
    Micros timeout_us;
    std::optional<Bytes> reply;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      client.invoke_complete(
          std::move(request),
          [this, guard = sim::Simulator::CoroResume{h}](const Bytes* r) mutable {
            if (r != nullptr) {
              reply = *r;
            } else {
              reply = std::nullopt;
            }
            client.gcs_.scope().after(0, std::move(guard));
          },
          timeout_us);
    }
    std::optional<Bytes> await_resume() { return std::move(reply); }
  };
  [[nodiscard]] TimedCallAwaiter call_with_timeout(Bytes request, Micros timeout_us) {
    return TimedCallAwaiter{*this, std::move(request), timeout_us, std::nullopt};
  }

  [[nodiscard]] std::uint64_t invocations() const { return next_seq_ - 1; }
  [[nodiscard]] std::uint64_t replies() const { return replies_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  /// One in-flight invocation: the (single-owner) completion plus its
  /// timeout timer, if timed.  The timer is scope-owned and cancelled when
  /// the reply wins the race or the client is destroyed.
  struct Outstanding {
    CompleteFn complete;
    sim::Simulator::EventId timer{};  // default (never valid) if untimed
  };

  void on_message(const gcs::Message& m);

  sim::Simulator& sim_;
  gcs::GcsEndpoint& gcs_;
  GroupId client_group_;
  GroupId server_group_;
  ConnectionId conn_;
  MsgSeqNum next_seq_ = 1;
  std::map<MsgSeqNum, Outstanding> outstanding_;
  std::uint64_t replies_ = 0;
  std::uint64_t timeouts_ = 0;

  friend struct CallAwaiter;
  friend struct TimedCallAwaiter;
};

}  // namespace cts::orb
