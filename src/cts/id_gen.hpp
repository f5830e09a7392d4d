// Replica-deterministic unique-identifier generation.
//
// The paper's introduction lists this as the first victim of clock
// non-determinism: "the physical hardware clock value is used as the seed
// of a random number generator to generate unique identifiers such as
// object identifiers or transaction identifiers".  Seed the generator from
// a hardware clock and every replica mints DIFFERENT ids for the SAME
// logical object.
//
// ConsistentIdGenerator seeds from the GROUP clock instead: each id is
// derived from one group-clock reading (identical at every replica) mixed
// with the generator's own call counter and namespace.  The result is
//   * deterministic across replicas — replica 1's id for transaction #7
//     equals replica 2's id for transaction #7;
//   * unique within the generator — the counter separates ids minted from
//     equal readings;
//   * unique across generators/groups — the namespace is mixed in;
//   * unpredictable enough for hashing — finalized with splitmix64.
#pragma once

#include <cstdint>

#include "cts/consistent_time_service.hpp"

namespace cts::ccs {

class ConsistentIdGenerator {
 public:
  /// `ns` namespaces the ids (use the group id value); `thread` is the
  /// dedicated logical thread for the generator's clock reads.
  ConsistentIdGenerator(ConsistentTimeService& time, ThreadId thread, std::uint64_t ns)
      : time_(time), thread_(thread), ns_(ns) {
    time_.register_thread(thread_);
  }

  /// Awaitable form: `std::uint64_t id = co_await gen.make_id();` — one
  /// group-clock round on the generator's thread.
  struct IdAwaiter : ConsistentTimeService::RoundAwaiter {
    ConsistentIdGenerator& gen;
    std::uint64_t await_resume() noexcept { return mix(value, ++gen.counter_, gen.ns_); }
  };
  [[nodiscard]] IdAwaiter make_id() {
    return IdAwaiter{{time_, thread_, ClockCallType::kClockGettime}, *this};
  }

  /// The deterministic mixing function (exposed for tests).
  static std::uint64_t mix(Micros group_time, std::uint64_t counter, std::uint64_t ns) {
    std::uint64_t x = static_cast<std::uint64_t>(group_time);
    x ^= counter * 0x9e3779b97f4a7c15ULL;
    x ^= ns * 0xbf58476d1ce4e5b9ULL;
    // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::uint64_t minted() const { return counter_; }
  /// Continue from a checkpointed minted() count.  The count is part of the
  /// ids, so a replica restored from a checkpoint must resume the group's
  /// count, not start again from 0.
  void restore_minted(std::uint64_t n) { counter_ = n; }

 private:
  ConsistentTimeService& time_;
  ThreadId thread_;
  std::uint64_t ns_;
  std::uint64_t counter_ = 0;
};

}  // namespace cts::ccs
