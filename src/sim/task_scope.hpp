// TaskScope: a per-node lifecycle scope over the simulator's event queue.
//
// The paper's fault model is fail-stop: a crashed processor stops acting and
// stops reading its hardware clock.  In the simulation every layer of a node
// (Totem daemon, GCS endpoint, replica manager, CTS, RMI client) schedules
// callbacks and parks coroutine frames on the shared event heap, so "crash"
// has to mean more than flipping a flag — every pending timer, in-flight
// delivery callback, and suspended frame the node owns must be torn down in
// one operation or the dead node keeps executing.
//
// A TaskScope is that operation's unit of ownership.  Each node owns exactly
// one (rooted in its TotemNode and reached by the higher layers through
// accessor chains); everything the node schedules goes through the scope,
// which records the EventId.  `shutdown()` then:
//
//   1. runs registered shutdown hooks in registration order (components
//      tear down their own protocol state — e.g. the Totem daemon leaves
//      the ring, the CTS abandons in-flight rounds);
//   2. sweeps every still-pending tracked event with the event heap's
//      O(log n) in-place cancel (PR 3's capability; this PR spends it).
//
// Destroy-on-drop discipline does the frame accounting for free: a cancelled
// event whose callback is a `Simulator::CoroResume` destroys the suspended
// frame when its heap slot is reset, and hooks that drop parked
// continuations (`ccs::RoundContinuation`) report the frames they destroyed
// via `note_frames_destroyed()`.
//
// Determinism: `at`/`after` forward to the simulator unmodified (same
// sequence-number consumption, zero per-event overhead beyond recording the
// id), so non-crash schedules are byte-identical with or without a scope.
// Cancellation consumes no sequence numbers, so the shutdown sweep only
// removes events — it never renumbers the survivors.
//
// A scope is reusable after shutdown(): the same per-node scope serves the
// node's whole lifetime across crash, restart, and cold restart.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace cts::sim {

class TaskScope {
 public:
  using HookId = std::uint64_t;

  explicit TaskScope(Simulator& sim) : sim_(sim) {}

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  [[nodiscard]] Simulator& simulator() { return sim_; }

  /// Schedule `fn` at absolute simulated time `t`, owned by this scope.
  template <typename F>
  Simulator::EventId at(Micros t, F&& fn) {
    const Simulator::EventId ev = sim_.at(t, std::forward<F>(fn));
    track(ev);
    return ev;
  }

  /// Schedule `fn` after `delay` microseconds, owned by this scope.
  template <typename F>
  Simulator::EventId after(Micros delay, F&& fn) {
    const Simulator::EventId ev = sim_.after(delay, std::forward<F>(fn));
    track(ev);
    return ev;
  }

  /// Cancel a scope-owned event.  Returns true if a pending event was
  /// removed.  Cancels performed by shutdown hooks count toward
  /// `timers_cancelled_on_shutdown()` exactly like the final sweep.
  bool cancel(Simulator::EventId ev) {
    const bool removed = sim_.cancel(ev);
    if (removed && in_shutdown_) ++timers_cancelled_;
    return removed;
  }

  /// Re-key a still-pending scope-owned event (the id stays tracked and
  /// stays valid).  Returns false if it already fired or was cancelled.
  bool reschedule(Simulator::EventId ev, Micros t) { return sim_.reschedule(ev, t); }

  /// Awaitable: suspend the coroutine for `d` simulated microseconds with
  /// the wakeup owned by this scope — shutdown() cancels the wakeup, which
  /// destroys the suspended frame instead of resuming a dead node's code.
  struct DelayAwaiter {
    TaskScope& scope;
    Micros d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { scope.after(d, Simulator::CoroResume{h}); }
    void await_resume() const noexcept {}
  };

  /// `co_await scope.delay(d)` — the scoped analogue of Simulator::delay.
  DelayAwaiter delay(Micros d) { return DelayAwaiter{*this, d}; }

  /// Register a hook to run at the start of shutdown(), before the timer
  /// sweep.  Hooks run in registration order.  Components whose lifetime is
  /// shorter than the scope's (anything rebuilt on restart) must
  /// remove_hook() in their destructor.
  // detlint:allow(heap-callback): hooks are registered once per component
  // lifetime, never constructed on the per-event path.
  HookId on_shutdown(std::function<void()> hook) {
    const HookId id = next_hook_id_++;
    hooks_.push_back(Hook{id, std::move(hook)});
    return id;
  }

  /// Deregister a shutdown hook.  Safe to call with an id that already ran.
  void remove_hook(HookId id) {
    for (std::size_t i = 0; i < hooks_.size(); ++i) {
      if (hooks_[i].id == id) {
        hooks_.erase(hooks_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  /// Fail-stop teardown: run shutdown hooks, then cancel every pending
  /// event this scope owns.  Cancelled events destroy their callbacks in
  /// place, so parked `CoroResume` wakeups destroy their coroutine frames
  /// rather than resuming a dead node.  The scope remains usable — a
  /// restarted node keeps scheduling through the same scope.
  void shutdown() {
    in_shutdown_ = true;
    for (std::size_t i = 0; i < hooks_.size(); ++i) hooks_[i].fn();
    for (const std::uint64_t id : live_) {
      if (sim_.cancel(Simulator::EventId{id})) ++timers_cancelled_;
    }
    live_.clear();
    in_shutdown_ = false;
  }

  /// Shutdown hooks that drop parked continuations themselves (e.g. the
  /// CTS abandoning in-flight rounds) report the frames they destroyed.
  void note_frames_destroyed(std::uint64_t n) { frames_destroyed_ += n; }

  /// Pending events actually cancelled across all shutdown() calls (the
  /// obs layer exports this as `sim.timers_cancelled_on_shutdown`).
  [[nodiscard]] std::uint64_t timers_cancelled_on_shutdown() const { return timers_cancelled_; }

  /// Suspended coroutine frames destroyed by shutdown hooks (exported as
  /// `node.frames_destroyed_on_shutdown`).  Frames destroyed by the timer
  /// sweep itself (scoped delays, parked resume trampolines) are counted
  /// as cancelled timers, not here.
  [[nodiscard]] std::uint64_t frames_destroyed_on_shutdown() const { return frames_destroyed_; }

 private:
  struct Hook {
    HookId id;
    // detlint:allow(heap-callback): see on_shutdown() — never per-event.
    std::function<void()> fn;
  };

  void track(Simulator::EventId ev) {
    live_.push_back(ev.id);
    if (live_.size() >= prune_threshold_) prune();
  }

  /// Drop ids whose events already fired or were cancelled.  Amortized O(1)
  /// per tracked event and purely a function of the schedule, so pruning
  /// never perturbs determinism.
  void prune() {
    std::size_t keep = 0;
    for (const std::uint64_t id : live_) {
      if (sim_.scheduled(Simulator::EventId{id})) live_[keep++] = id;
    }
    live_.resize(keep);
    prune_threshold_ = live_.size() * 2 < kMinPrune ? kMinPrune : live_.size() * 2;
  }

  static constexpr std::size_t kMinPrune = 64;

  Simulator& sim_;
  std::vector<std::uint64_t> live_;
  std::vector<Hook> hooks_;
  std::size_t prune_threshold_ = kMinPrune;
  HookId next_hook_id_ = 1;
  std::uint64_t timers_cancelled_ = 0;
  std::uint64_t frames_destroyed_ = 0;
  bool in_shutdown_ = false;
};

}  // namespace cts::sim
