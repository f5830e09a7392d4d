// Replica-deterministic timers driven by the group clock.
//
// The paper's introduction motivates the consistent time service with
// timeout handling: "the physical hardware clock value is used for
// timeouts, for example, in timed remote method invocations ... and by
// transaction processing systems in two-phase commit and transaction
// session management".  A timeout that fires from a hardware clock fires
// at different logical points at different replicas — a backup might abort
// a transaction the primary committed.
//
// GroupTimerService expresses deadlines in GROUP time and checks them with
// group-clock readings: a dedicated logical thread periodically performs a
// clock-related operation (one CCS round) and fires every timer whose
// deadline the reading has passed, in (deadline, id) order.  Every replica
// fires the same timers in the same order with the same observed time.
//
// It does NOT place the timers' effects at one point of the ordered
// request stream.  The poll thread runs beside the processing thread, so a
// timer's effect lands between different requests at different replicas.
// State that requests read (leases, sessions) must not be changed from
// here: KvStoreApp and SessionManagerApp once did, and their replicas
// diverged.  The supported pattern for such state is a lazy deadline: keep
// the deadlines ordered, and let every request that reads the group clock
// first apply each deadline its reading has passed, then decide (see
// app/kv_store.hpp).  The service stays for examples/transaction_timeouts
// and tests/services_test.cpp, whose timers touch no state that requests
// read.
//
// Cost: one CCS round per poll while running (amortized across all armed
// timers).  The service stops polling automatically while no timers are
// armed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "cts/consistent_time_service.hpp"

namespace cts::ccs {

class GroupTimerService {
 public:
  using TimerId = std::uint64_t;
  /// Callback receives the group-clock reading that fired the timer
  /// (identical at every replica).
  using TimerFn = std::function<void(Micros)>;

  struct Config {
    /// Dedicated logical thread for the poll loop (must be distinct from
    /// application threads, and identical across replicas).
    ThreadId thread{100};
    /// Poll cadence in simulated time.  Timer precision is one poll
    /// period plus one CCS round.
    Micros poll_interval_us = 1'000;
  };

  GroupTimerService(ConsistentTimeService& time, Config cfg)
      : time_(time), cfg_(cfg) {
    time_.register_thread(cfg_.thread);
  }

  GroupTimerService(const GroupTimerService&) = delete;
  GroupTimerService& operator=(const GroupTimerService&) = delete;

  ~GroupTimerService() {
    stop();
    *alive_ = false;  // a suspended poll loop must not touch *this again
  }

  /// Arm a timer at an absolute group-clock deadline.  Returns a
  /// deterministic id (assigned in schedule order — callers schedule from
  /// the ordered request stream, so ids agree across replicas).
  TimerId schedule_at(Micros group_deadline, TimerFn fn) {
    const TimerId id = next_id_++;
    timers_.emplace(Key{group_deadline, id}, std::move(fn));
    ensure_polling();
    return id;
  }

  /// Arm a timer `delay` after the group-time `base` (typically the
  /// reading the caller just performed).
  TimerId schedule_after(Micros base, Micros delay, TimerFn fn) {
    return schedule_at(base + delay, std::move(fn));
  }

  /// Disarm.  Returns false if the timer already fired or never existed.
  /// Deterministic for the same reason scheduling is.
  bool cancel(TimerId id) {
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->first.id == id) {
        timers_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Stop the poll loop (e.g. at shutdown).  Armed timers stay armed and
  /// polling resumes on the next schedule_* call.
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  struct Key {
    Micros deadline;
    TimerId id;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  void ensure_polling() {
    if (running_ || timers_.empty()) return;
    running_ = true;
    poll_loop();
  }

  sim::Task poll_loop() {
    // Keep a by-value guard: if the service is destroyed while this
    // coroutine is suspended, the next resume exits without touching the
    // dead object.
    const std::shared_ptr<bool> alive = alive_;
    while (*alive && running_ && !timers_.empty()) {
      const Micros now = co_await time_.get_time(cfg_.thread, ClockCallType::kClockGettime);
      if (!*alive) co_return;
      // Fire everything due, in (deadline, id) order — identical at every
      // replica because `now` is the group clock.
      while (!timers_.empty() && timers_.begin()->first.deadline <= now) {
        auto node = timers_.extract(timers_.begin());
        ++fired_;
        node.mapped()(now);
      }
      if (timers_.empty()) break;
      // The inter-poll sleep is a node-owned event: a fail-stop crash
      // cancels it and destroys this suspended frame instead of waking a
      // dead node's poll loop.
      co_await time_.scope().delay(cfg_.poll_interval_us);
      if (!*alive) co_return;
    }
    if (*alive) running_ = false;
  }

  ConsistentTimeService& time_;
  Config cfg_;
  // Destruction-mid-suspend guard, NOT a crash guard: crash cleanup is the
  // lifecycle scope's job (the scoped delay above dies with the node).  This
  // only protects a poll loop suspended on get_time() across ~GroupTimerService
  // — the CTS shutdown hook does not run for plain destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::map<Key, TimerFn> timers_;
  TimerId next_id_ = 1;
  bool running_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace cts::ccs
