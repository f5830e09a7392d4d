// InterIslandLink: the wide-area hop between simulation islands.
//
// Each island models one LAN (one Totem ring) on its own Simulator; this
// link models the slower network between them.  Its single load-bearing
// property is the latency floor: every frame takes at least `latency_us`
// of virtual time, and `latency_us` must be at least the coordinator's
// conservative window floor — that inequality is what lets islands run a
// whole barrier window in parallel without ever missing an incoming frame
// (doc/PARALLEL.md).  The floor is checked against the coordinator at
// construction and again on every send.
//
// Thread discipline (enforced by construction, verified by the TSan CI
// leg): send() runs on the source island's worker and touches only that
// island's state — its simulator clock, its per-island stats slot, and its
// private mailbox cell inside the coordinator.  Delivery callbacks run on
// the destination island's worker.  The endpoint table is written only
// during single-threaded setup (attach before the first run) and is
// read-only afterwards.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace cts::net {

struct IslandLinkConfig {
  /// One-way latency of every inter-island frame.  Must be >= the
  /// coordinator's window floor (asserted) — the conservative barrier is
  /// only sound if no frame can undercut it.
  Micros latency_us = 500;
};

class InterIslandLink {
 public:
  /// Called on the destination island's worker with the source island and
  /// the frame bytes.
  // detlint:allow(heap-callback): constructed once per island at attach()
  // during setup, never on the per-frame path
  using DeliverFn = std::function<void(sim::IslandId src, Bytes frame)>;

  struct LinkStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
  };

  InterIslandLink(sim::IslandCoordinator& coord, IslandLinkConfig cfg)
      : coord_(coord), cfg_(cfg) {
    assert(cfg_.latency_us >= coord_.window_floor());
  }

  InterIslandLink(const InterIslandLink&) = delete;
  InterIslandLink& operator=(const InterIslandLink&) = delete;

  /// Register island `island`'s endpoint.  Setup-phase only: every attach
  /// must happen before the coordinator's first run (the endpoint table is
  /// immutable while workers exist).
  void attach(sim::IslandId island, sim::Simulator& sim, DeliverFn on_deliver) {
    if (eps_.size() <= island) {
      eps_.resize(island + 1);
      stats_.resize(island + 1);
    }
    eps_[island].sim = &sim;
    eps_[island].fn = std::move(on_deliver);
  }

  /// Send `frame` from island `src` to island `dst`; it is delivered
  /// `latency_us` later (destination time) on the destination's worker.
  /// Must be called from `src`'s execution context.
  void send(sim::IslandId src, sim::IslandId dst, Bytes frame) {
    assert(src < eps_.size() && eps_[src].sim != nullptr && "source island not attached");
    assert(dst < eps_.size() && eps_[dst].fn && "destination island not attached");
    auto& st = stats_[src];  // src's own slot: only src's worker writes it
    ++st.frames_sent;
    st.bytes_sent += frame.size();
    const Micros deliver_at = eps_[src].sim->now() + cfg_.latency_us;
    coord_.post(src, dst, deliver_at,
                [ep = &eps_[dst], src, frame = std::move(frame)]() mutable {
                  ep->fn(src, std::move(frame));
                });
  }

  [[nodiscard]] Micros latency() const { return cfg_.latency_us; }

  /// Sum over all islands.  Read between runs.
  [[nodiscard]] LinkStats total_stats() const {
    LinkStats t;
    for (const LinkStats& s : stats_) {
      t.frames_sent += s.frames_sent;
      t.bytes_sent += s.bytes_sent;
    }
    return t;
  }

 private:
  struct Endpoint {
    sim::Simulator* sim = nullptr;
    DeliverFn fn;
  };

  sim::IslandCoordinator& coord_;
  IslandLinkConfig cfg_;
  std::vector<Endpoint> eps_;
  std::vector<LinkStats> stats_;
};

}  // namespace cts::net
