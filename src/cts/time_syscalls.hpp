// Library-interpositioning facade for clock-related system calls.
//
// The paper's implementation (Section 4.1) interposes on the libc symbols
// gettimeofday(), time() and ftime() with LD_PRELOAD so the application is
// unchanged; each interposed call carries a unique type identifier in the
// CCS message.  In the simulation, application code receives a TimeSyscalls
// object instead of calling libc; each method corresponds to one interposed
// symbol, carries its own ClockCallType, and drives one round of the CCS
// algorithm.  The returned value respects the original call's resolution
// (microseconds / seconds / milliseconds).
#pragma once

#include "cts/consistent_time_service.hpp"

namespace cts::ccs {

/// A timeval-like result for gettimeofday().
struct TimeVal {
  std::int64_t tv_sec = 0;
  std::int64_t tv_usec = 0;
  friend bool operator==(const TimeVal&, const TimeVal&) = default;

  [[nodiscard]] Micros total_us() const { return tv_sec * 1'000'000 + tv_usec; }
  static TimeVal from_us(Micros us) { return TimeVal{us / 1'000'000, us % 1'000'000}; }
};

/// A timeb-like result for ftime().
struct TimeB {
  std::int64_t time = 0;      // seconds
  std::uint16_t millitm = 0;  // milliseconds
  friend bool operator==(const TimeB&, const TimeB&) = default;

  [[nodiscard]] Micros total_us() const {
    return time * 1'000'000 + static_cast<Micros>(millitm) * 1'000;
  }
  static TimeB from_us(Micros us) {
    return TimeB{us / 1'000'000, static_cast<std::uint16_t>((us / 1'000) % 1'000)};
  }
};

/// Per-thread interposed syscall table.  One instance per application
/// thread of a replica, bound to that thread's identifier (the identifier
/// that rides in CCS headers).
class TimeSyscalls {
 public:
  TimeSyscalls(ConsistentTimeService& svc, ThreadId thread) : svc_(svc), thread_(thread) {
    svc_.register_thread(thread_);
  }

  /// Awaitable mapping the raw group-clock microseconds through a
  /// resolution-preserving conversion.
  template <typename Result, Result (*Convert)(Micros)>
  struct Call : ConsistentTimeService::RoundAwaiter {
    Result await_resume() const { return Convert(value); }
  };

  static TimeVal to_timeval(Micros us) { return TimeVal::from_us(us); }
  static std::int64_t to_seconds(Micros us) { return us / 1'000'000; }
  static TimeB to_timeb(Micros us) { return TimeB::from_us(us); }
  static Micros to_micros(Micros us) { return us; }

  /// gettimeofday(2): microsecond resolution.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto gettimeofday() {
    return Call<TimeVal, &TimeSyscalls::to_timeval>{{svc_, thread_, ClockCallType::kGettimeofday}};
  }

  /// time(2): whole seconds.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto time() {
    return Call<std::int64_t, &TimeSyscalls::to_seconds>{{svc_, thread_, ClockCallType::kTime}};
  }

  /// ftime(3): millisecond resolution.
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto ftime() {
    return Call<TimeB, &TimeSyscalls::to_timeb>{{svc_, thread_, ClockCallType::kFtime}};
  }

  /// clock_gettime(2) with CLOCK_REALTIME: microseconds (ns granularity is
  /// below the simulation's resolution).
  // detlint:allow(wall-clock): interposed-symbol facade — reads the CCS
  // group clock, never the host clock; the name mirrors the libc symbol.
  auto clock_gettime() {
    return Call<Micros, &TimeSyscalls::to_micros>{{svc_, thread_, ClockCallType::kClockGettime}};
  }

  [[nodiscard]] ThreadId thread() const { return thread_; }

 private:
  ConsistentTimeService& svc_;
  ThreadId thread_;
};

}  // namespace cts::ccs
