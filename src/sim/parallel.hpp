// IslandCoordinator: conservative-window parallel execution of disjoint
// simulation islands, byte-identical to serial execution.
//
// An *island* is one self-contained Simulator — its own EventHeap, its own
// RNG stream, its own TaskScope roots — hosting a subsystem (one Totem ring
// and everything above it) that interacts with other islands only through
// explicitly posted cross-island messages.  The coordinator advances all
// islands in lockstep epochs:
//
//   1. every cross-island message carries at least `window_floor_us` of
//      latency, so if T0 is the earliest pending event anywhere, no event
//      executed this epoch can cause a delivery before T0 + floor;
//   2. each epoch, every island therefore executes exactly the events with
//      time < W, where W = min(T0 + floor, bound) — independently, in
//      parallel, with zero shared state;
//   3. at the barrier the coordinator drains the mailboxes in canonical
//      (source island, post order) order into the destination heaps, then
//      recomputes T0.
//
// Determinism: an island's schedule is a function of its own heap contents
// and the mailbox drains.  Neither depends on the number of worker threads:
// epoch windows are pure virtual-time arithmetic, and the drain order is
// fixed by (src island, post seq) — a message's destination-side sequence
// number (the FIFO tie-break within a timestamp) is assigned at the
// single-threaded barrier, never by thread arrival order.  Hence a run with
// N workers fires exactly the events, in exactly the order, of the serial
// run — traces and metrics are byte-identical (proven by the double-run
// test in tests/parallel_sim_test.cpp; doc/PARALLEL.md has the full
// argument).
//
// Threading model: worker 0 is the coordinating thread itself, so
// threads == 1 spawns nothing and executes the islands in index order on
// the caller — the exact serial path.  With n > 1 threads, worker w owns
// islands w, w + n, w + 2n, ...: each epoch it runs its own islands first,
// then steals any island no thread has started yet.  A per-island epoch
// stamp, claimed with a compare-and-swap that only moves it forward, makes
// every island run on exactly one thread per epoch.  Which thread runs an
// island never changes the schedule: the island's events depend only on
// its heap and the window.
//
// There is no mutex.  The coordinator writes the window and sets the
// pending count to the number of islands, then publishes the epoch with a
// seq_cst increment of the generation counter.  Each thread acquires the
// generation, runs the islands it claims, and subtracts their number from
// pending (seq_cst); the coordinator acquires pending == 0 and only then
// drains the mailboxes.  That chain (pending release -> pending acquire ->
// drain -> generation release -> generation acquire) orders every island
// access in epoch e + 1, and every drain into an island's heap, after
// every access in epoch e, whichever threads made them.  The epoch waits
// for islands, not for workers: a worker that is descheduled before it
// claims anything holds nobody up, and when it wakes its stale generation
// can claim nothing.  Mailbox cell (src, dst) is written during an epoch
// only by the thread running src, and read only by the drain.
//
// Each waiter (a worker for the next generation, the coordinator for
// pending == 0) spins kSpinIters `pause` iterations — a few epochs' worth
// — then parks in std::atomic::wait.  With more threads than hardware
// threads, spinning only takes cycles from the thread being waited for,
// so waiters park at once.  The TSan CI leg runs the parallel suite at
// CTS_SIM_THREADS=4 and 8, and its tests pin counts up to 8, so both wait
// paths stay data-race-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/inline_fn.hpp"
#include "sim/simulator.hpp"

namespace cts::sim {

/// Index of an island within its coordinator.
using IslandId = std::uint32_t;

/// Worker-thread count for parallel runs: the CTS_SIM_THREADS environment
/// variable when set to a positive integer, otherwise `fallback`.
/// 1 (the default everywhere) means fully serial execution.
inline unsigned threads_from_env(unsigned fallback = 1) {
  const char* env = std::getenv("CTS_SIM_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0 || v > 1024) return fallback;
  return static_cast<unsigned>(v);
}

class IslandCoordinator {
 public:
  struct Stats {
    std::uint64_t epochs = 0;          // barrier windows executed
    std::uint64_t posts = 0;           // cross-island messages posted
    std::uint64_t events_executed = 0; // events fired under the coordinator
    // Barrier behaviour.  Both depend on how the host schedules threads,
    // not on the simulated schedule, so they are never exported to metrics
    // or traces (whose bytes must not depend on the host).
    std::uint64_t parks = 0;   // waits that stopped spinning and slept
    std::uint64_t steals = 0;  // islands run by a thread other than their owner
  };

  /// `window_floor_us` is the minimum latency of every cross-island post —
  /// the conservative lookahead that makes the epoch windows safe.  Must be
  /// at least 1 (an island may never affect another in the same instant).
  explicit IslandCoordinator(Micros window_floor_us) : floor_(window_floor_us) {
    assert(floor_ >= 1);
  }

  IslandCoordinator(const IslandCoordinator&) = delete;
  IslandCoordinator& operator=(const IslandCoordinator&) = delete;

  ~IslandCoordinator() { stop_workers(); }

  /// Register an island.  All islands must be registered before the first
  /// run_until(); the returned id is the island's permanent index.
  IslandId add_island(Simulator& sim) {
    assert(!running_started_ && "add_island after the first run_until");
    const auto id = static_cast<IslandId>(islands_.size());
    islands_.push_back(&sim);
    const std::size_t k = islands_.size();
    mail_ = std::vector<std::vector<Entry>>(k * k);
    claims_ = std::vector<Claim>(k);
    return id;
  }

  [[nodiscard]] Micros window_floor() const { return floor_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Requested worker count for subsequent runs (clamped to the island
  /// count at run time; 1 = serial).  Callable between runs, not during one.
  void set_threads(unsigned n) {
    assert(!in_epoch_);
    requested_threads_ = n == 0 ? 1 : n;
  }
  [[nodiscard]] unsigned threads() const { return requested_threads_; }

  /// Post `fn` to run on island `dst` at absolute (destination) time
  /// `deliver_at`.  Must be called from island `src`'s execution (the
  /// thread running it, during an epoch, or any single-threaded setup phase
  /// outside run_until), and the delivery must respect the window floor:
  /// deliver_at >= src.now() + window_floor().  The callable must own its
  /// captures — it is executed (or destroyed unfired) on another thread.
  template <typename F>
  void post(IslandId src, IslandId dst, Micros deliver_at, F&& fn) {
    assert(src < islands_.size() && dst < islands_.size());
    assert(deliver_at >= islands_[src]->now() + floor_ &&
           "cross-island delivery below the conservative window floor");
    auto& cell = mail_[src * islands_.size() + dst];
    cell.push_back(Entry{deliver_at, InlineFn(std::forward<F>(fn))});
  }

  /// Run every island up to and including virtual time `t` (the multi-island
  /// analogue of Simulator::run_until): all events with time <= t fire, and
  /// every island's now() ends at exactly t.
  void run_until(Micros t) {
    running_started_ = true;
    ensure_workers();
    if (step_window_ != 0) {  // finish the epoch a step() left open
      for (; step_island_ < islands_.size(); ++step_island_) {
        stats_.events_executed += islands_[step_island_]->run_events_before(step_window_);
      }
      step_window_ = 0;
    }
    drain_mailboxes();
    for (;;) {
      Micros t0 = kInf;
      for (Simulator* s : islands_) {
        if (s->pending() > 0 && s->next_event_time() < t0) t0 = s->next_event_time();
      }
      if (t0 == kInf || t0 > t) break;
      const Micros w = std::min(sat_add(t0, floor_), sat_add(t, 1));
      execute_epoch(w);
      ++stats_.epochs;
      drain_mailboxes();
    }
    for (Simulator* s : islands_) s->advance_to(t);
    now_ = t;
  }

  /// Run for `d` microseconds of virtual time past the current bound.
  void run_for(Micros d) { run_until(sat_add(now_, d)); }

  /// Execute exactly ONE event, following the identical canonical schedule
  /// run_until() produces: epochs in window order, islands in index order
  /// within an epoch, each island's events in its own heap order.  Serial
  /// only (the whole point is a deterministic event-index grid for fault
  /// sweeps — see tests/handoff_sweep_test.cpp).  Returns false when no
  /// event remains at or before `t`; islands are then advanced to `t`.
  /// run_until() may be called afterwards — it first finishes any epoch a
  /// step() left open, so stepping K events and then running to completion
  /// executes the same schedule as a plain run with a K-indexed
  /// intervention.
  bool step(Micros t) {
    assert(effective_threads() == 1 && "step() is serial-only");
    running_started_ = true;
    for (;;) {
      if (step_window_ == 0) {  // open the next epoch
        drain_mailboxes();
        Micros t0 = kInf;
        for (Simulator* s : islands_) {
          if (s->pending() > 0 && s->next_event_time() < t0) t0 = s->next_event_time();
        }
        if (t0 == kInf || t0 > t) {
          for (Simulator* s : islands_) s->advance_to(t);
          now_ = t;
          return false;
        }
        step_window_ = std::min(sat_add(t0, floor_), sat_add(t, 1));
        step_island_ = 0;
        ++stats_.epochs;
      }
      for (; step_island_ < islands_.size(); ++step_island_) {
        Simulator* s = islands_[step_island_];
        if (s->pending() > 0 && s->next_event_time() < step_window_) {
          s->step();
          ++stats_.events_executed;
          return true;
        }
      }
      step_window_ = 0;  // epoch exhausted; open the next one
    }
  }

  /// The coordinator's virtual-time cursor: the bound of the last
  /// run_until().  Islands' own now() match it between runs.
  [[nodiscard]] Micros now() const { return now_; }

 private:
  struct Entry {
    Micros at;
    InlineFn fn;
  };

  /// Per-island epoch state, one cache line each so an owner's claim does
  /// not contend with a thief's scan.
  struct alignas(64) Claim {
    std::atomic<std::uint64_t> gen{0};  // last generation the island ran in
    std::uint64_t fired = 0;            // events it fired then
  };

  static constexpr Micros kInf = std::numeric_limits<Micros>::max();

  /// `pause` iterations a waiter spins before it parks: about 125 us on a
  /// 4-core Xeon (15 ns per pause), a few epochs of the 16-ring workloads.
  static constexpr unsigned kSpinIters = 1u << 13;

  static Micros sat_add(Micros a, Micros b) { return a > kInf - b ? kInf : a + b; }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  /// Schedule all queued cross-island messages into their destination heaps
  /// in canonical (src, post order) order — dst-side sequence numbers (the
  /// simultaneous-event tie break) are assigned here, single-threaded, so
  /// they are identical for every worker count.
  void drain_mailboxes() {
    const std::size_t k = islands_.size();
    for (std::size_t src = 0; src < k; ++src) {
      for (std::size_t dst = 0; dst < k; ++dst) {
        auto& cell = mail_[src * k + dst];
        for (Entry& e : cell) {
          // A post made during single-threaded setup may predate an
          // island's clock; deliver it as soon as the destination allows.
          const Micros at = std::max(e.at, islands_[dst]->now());
          islands_[dst]->at(at, std::move(e.fn));
          ++stats_.posts;
        }
        cell.clear();
      }
    }
  }

  void execute_epoch(Micros w) {
    const unsigned n = effective_threads();
    if (n <= 1) {
      for (Simulator* s : islands_) stats_.events_executed += s->run_events_before(w);
      return;
    }
    in_epoch_ = true;
    window_ = w;
    pending_.store(static_cast<unsigned>(islands_.size()), std::memory_order_relaxed);
    // seq_cst, not just release: the increment must be ordered before
    // notify_all's check for parked waiters.
    const std::uint64_t gen = generation_.fetch_add(1, std::memory_order_seq_cst) + 1;
    generation_.notify_all();
    run_share(0, n, gen);
    await_islands();
    for (const Claim& c : claims_) stats_.events_executed += c.fired;
    stats_.parks = parks_.load(std::memory_order_relaxed);
    stats_.steals = steals_.load(std::memory_order_relaxed);
    in_epoch_ = false;
  }

  /// Thread `id`'s part of epoch `gen`: its own islands (id, id + n, ...)
  /// first, then, from the highest index down, any island no thread has
  /// claimed yet — the ones its owner would reach last.
  void run_share(unsigned id, unsigned n, std::uint64_t gen) {
    unsigned ran = 0;
    for (std::size_t i = id; i < islands_.size(); i += n) {
      if (claim(i, gen)) {
        run_island(i);
        ++ran;
      }
    }
    for (std::size_t i = islands_.size(); i-- > 0;) {
      if (i % n != id && claim(i, gen)) {
        run_island(i);
        ++ran;
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // seq_cst for the same reason as the generation increment.
    if (ran != 0 && pending_.fetch_sub(ran, std::memory_order_seq_cst) == ran) {
      pending_.notify_one();
    }
  }

  /// True for exactly one caller per island per epoch.  The stamp only
  /// moves forward, so a worker that wakes after its epoch ended claims
  /// nothing.
  bool claim(std::size_t island, std::uint64_t gen) {
    std::atomic<std::uint64_t>& g = claims_[island].gen;
    std::uint64_t cur = g.load(std::memory_order_relaxed);
    while (cur < gen) {
      if (g.compare_exchange_weak(cur, gen, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Run a claimed island.  The epoch cannot end before this island does,
  /// so window_ still holds this epoch's window.
  void run_island(std::size_t i) { claims_[i].fired = islands_[i]->run_events_before(window_); }

  /// Worker side of the barrier: wait for a generation other than `seen`.
  std::uint64_t await_generation(std::uint64_t seen) {
    std::uint64_t g = generation_.load(std::memory_order_acquire);
    for (unsigned i = 0; g == seen && spin_ && i < kSpinIters; ++i) {
      cpu_relax();
      g = generation_.load(std::memory_order_acquire);
    }
    if (g != seen) return g;
    parks_.fetch_add(1, std::memory_order_relaxed);
    do {
      generation_.wait(seen, std::memory_order_acquire);
      g = generation_.load(std::memory_order_acquire);
    } while (g == seen);
    return g;
  }

  /// Coordinator side of the barrier: wait until every island has run.
  void await_islands() {
    unsigned p = pending_.load(std::memory_order_acquire);
    for (unsigned i = 0; p != 0 && spin_ && i < kSpinIters; ++i) {
      cpu_relax();
      p = pending_.load(std::memory_order_acquire);
    }
    if (p == 0) return;
    parks_.fetch_add(1, std::memory_order_relaxed);
    do {
      pending_.wait(p, std::memory_order_acquire);
      p = pending_.load(std::memory_order_acquire);
    } while (p != 0);
  }

  [[nodiscard]] unsigned effective_threads() const {
    const auto k = static_cast<unsigned>(islands_.size());
    return std::min(requested_threads_, k == 0 ? 1u : k);
  }

  void ensure_workers() {
    const unsigned want = effective_threads();
    if (want == spawned_threads_) return;
    stop_workers();
    spawned_threads_ = want;
    if (want <= 1) return;
    stop_.store(false, std::memory_order_relaxed);
    spin_ = want <= std::thread::hardware_concurrency();
    // A new worker waits for the next generation, never one it missed.
    const std::uint64_t current = generation_.load(std::memory_order_relaxed);
    for (unsigned id = 1; id < want; ++id) {
      workers_.emplace_back([this, id, want, current] { worker_loop(id, want, current); });
    }
  }

  void worker_loop(unsigned id, unsigned n, std::uint64_t seen) {
    for (;;) {
      seen = await_generation(seen);
      if (stop_.load(std::memory_order_relaxed)) return;
      run_share(id, n, seen);
    }
  }

  void stop_workers() {
    if (workers_.empty()) return;
    stop_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_seq_cst);
    generation_.notify_all();
    for (std::thread& th : workers_) th.join();
    workers_.clear();
  }

  Micros floor_;
  Micros now_ = 0;
  std::vector<Simulator*> islands_;
  std::vector<std::vector<Entry>> mail_;  // mail_[src * K + dst]
  std::vector<Claim> claims_;             // per island
  Stats stats_;
  bool running_started_ = false;
  bool in_epoch_ = false;

  // step() epoch cursor: the open window (0 = none) and the island the next
  // single-step resumes at.  Serial-only state; see step().
  Micros step_window_ = 0;
  std::size_t step_island_ = 0;

  unsigned requested_threads_ = 1;
  unsigned spawned_threads_ = 1;
  bool spin_ = false;  // threads <= hardware threads: spin before parking
  // Written only before a generation increment; read only by a thread
  // holding a claim in that generation (which the epoch waits for).
  Micros window_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<unsigned> pending_{0};  // islands yet to run this epoch
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::vector<std::thread> workers_;  // after everything the workers use
};

}  // namespace cts::sim
