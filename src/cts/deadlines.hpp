// Group-time deadlines, applied lazily at a point of the agreed stream.
//
// The paper's introduction motivates the time service with timeouts "in
// two-phase commit and transaction session management".  Reading the GROUP
// clock makes every replica see a deadline pass at the same reading, but
// the deadline's effect is replica-deterministic only if it also lands at
// the same point of the ordered request stream.  So a request that reads
// the group clock first calls expire(now, fn), which applies every deadline
// that reading has reached in (deadline, stamp) order, and only then
// decides; no poll thread or timer runs.  The stamp is the caller's unique
// counter for the entry (a lease grant, a session epoch): it breaks ties
// the same way at every replica and names the entry for disarm().  A
// restore re-arms the entries its checkpoint carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "common/types.hpp"

namespace cts::ccs {

template <typename Key>
class DeadlineIndex {
 public:
  /// Arm `key` to expire at group time `deadline`.  `stamp` must be unique
  /// among the armed entries; returns false, arming nothing, if an entry is
  /// already armed at (deadline, stamp).
  bool arm(Micros deadline, std::uint64_t stamp, Key key) {
    return index_.emplace(Slot{deadline, stamp}, std::move(key)).second;
  }

  /// Disarm the entry armed at (deadline, stamp).  Returns false if there
  /// is none (never armed, expired or already disarmed).
  bool disarm(Micros deadline, std::uint64_t stamp) {
    return index_.erase(Slot{deadline, stamp}) != 0;
  }

  /// Remove every entry whose deadline is at or below `now` — a group-clock
  /// reading the current request just took — in (deadline, stamp) order,
  /// calling fn(key, stamp) for each after it is removed.
  template <typename Fn>
  void expire(Micros now, Fn&& fn) {
    while (!index_.empty() && index_.begin()->first.first <= now) {
      auto node = index_.extract(index_.begin());
      fn(node.mapped(), node.key().second);
    }
  }

  void clear() { index_.clear(); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }

 private:
  using Slot = std::pair<Micros, std::uint64_t>;  // (deadline, stamp)
  std::map<Slot, Key> index_;
};

}  // namespace cts::ccs
