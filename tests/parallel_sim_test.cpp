// Island-parallel simulation: conservative-window coordinator semantics and
// the determinism contract — a parallel archipelago run exports traces and
// metrics byte-identical to the serial run (doc/PARALLEL.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "obs/merge.hpp"
#include "sim/parallel.hpp"

namespace cts {
namespace {

using sim::IslandCoordinator;
using sim::IslandId;
using sim::Simulator;

TEST(IslandCoordinator, RunsAllEventsAndLinesUpClocks) {
  Simulator a(1), b(2), c(3);
  IslandCoordinator coord(100);
  coord.add_island(a);
  coord.add_island(b);
  coord.add_island(c);

  int fired = 0;
  a.at(50, [&] { ++fired; });
  a.at(5'000, [&] { ++fired; });
  b.at(75, [&] { ++fired; });
  c.at(9'999, [&] { ++fired; });

  coord.run_until(10'000);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(a.now(), 10'000);
  EXPECT_EQ(b.now(), 10'000);
  EXPECT_EQ(c.now(), 10'000);
  EXPECT_EQ(coord.now(), 10'000);
  EXPECT_GE(coord.stats().epochs, 1u);
  EXPECT_EQ(coord.stats().events_executed, 4u);
}

TEST(IslandCoordinator, CrossIslandPostDeliversAtRequestedTime) {
  Simulator a(1), b(2);
  IslandCoordinator coord(500);
  const IslandId ia = coord.add_island(a);
  const IslandId ib = coord.add_island(b);

  Micros delivered_at = -1;
  a.at(1'000, [&] {
    coord.post(ia, ib, a.now() + 500, [&] { delivered_at = b.now(); });
  });
  coord.run_until(10'000);
  EXPECT_EQ(delivered_at, 1'500);
  EXPECT_EQ(coord.stats().posts, 1u);
}

TEST(IslandCoordinator, MailboxDrainsInCanonicalSourceOrder) {
  // Two islands post to a third with the SAME delivery time from the same
  // epoch; execution order at the destination must be (source island, post
  // order), regardless of worker count.
  for (unsigned threads : {1u, 2u, 3u}) {
    Simulator a(1), b(2), c(3);
    IslandCoordinator coord(1'000);
    const IslandId ia = coord.add_island(a);
    const IslandId ib = coord.add_island(b);
    const IslandId ic = coord.add_island(c);
    coord.set_threads(threads);

    std::vector<int> order;  // written only by island c's execution
    b.at(10, [&] {
      coord.post(ib, ic, 1'010, [&] { order.push_back(20); });
      coord.post(ib, ic, 1'010, [&] { order.push_back(21); });
    });
    a.at(10, [&] {
      coord.post(ia, ic, 1'010, [&] { order.push_back(10); });
      coord.post(ia, ic, 1'010, [&] { order.push_back(11); });
    });
    coord.run_until(5'000);
    ASSERT_EQ(order.size(), 4u) << "threads=" << threads;
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21})) << "threads=" << threads;
  }
}

// A chatty workload: every island runs a periodic local chain and every
// third tick posts a message to the next island, which logs it and
// schedules a local follow-up.  merged_log() returns the (island, time,
// label) log, which must be identical for every worker count.
class Chatty {
 public:
  static constexpr Micros kFloor = 700;

  explicit Chatty(int islands) : coord_(kFloor), logs_(static_cast<std::size_t>(islands)) {
    sims_.reserve(logs_.size());
    for (int i = 0; i < islands; ++i) sims_.emplace_back(static_cast<std::uint64_t>(i + 1));
    for (auto& s : sims_) ids_.push_back(coord_.add_island(s));
    for (int i = 0; i < islands; ++i) sim(i).at(10 + i, [this, i] { tick(i, 1); });
  }

  void run_until(unsigned threads, Micros t) {
    coord_.set_threads(threads);
    coord_.run_until(t);
  }

  // Island src posts label k to the next island; also callable between runs.
  void send(int src, int k) {
    const int dst = (src + 1) % static_cast<int>(sims_.size());
    coord_.post(ids_[static_cast<std::size_t>(src)], ids_[static_cast<std::size_t>(dst)],
                sim(src).now() + kFloor, [this, dst, k] {
                  log(dst, 1000 + k);
                  sim(dst).after(37, [this, dst, k] { log(dst, 2000 + k); });
                });
  }

  [[nodiscard]] std::vector<std::string> merged_log() const {
    std::vector<std::string> merged;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      for (const auto& [at, label] : logs_[i]) {
        merged.push_back(std::to_string(i) + "@" + std::to_string(at) + ":" +
                         std::to_string(label));
      }
    }
    return merged;
  }

 private:
  Simulator& sim(int i) { return sims_[static_cast<std::size_t>(i)]; }

  // Island i's log is written only by island i's events.
  void log(int i, int label) {
    logs_[static_cast<std::size_t>(i)].push_back({sim(i).now(), label});
  }

  void tick(int island, int k) {
    log(island, k);
    if (k % 3 == 0) send(island, k);
    if (k < 40) {
      sim(island).after(101 + 13 * (island + 1), [this, island, k] { tick(island, k + 1); });
    }
  }

  std::vector<Simulator> sims_;
  IslandCoordinator coord_;  // after sims_: its workers are joined first
  std::vector<IslandId> ids_;
  std::vector<std::vector<std::pair<Micros, int>>> logs_;
};

std::vector<std::string> chatty_run(int islands, unsigned threads) {
  Chatty c(islands);
  c.run_until(threads, 60'000);
  return c.merged_log();
}

TEST(IslandCoordinator, SerialAndParallelSchedulesIdentical) {
  // 8 workers clamp to 4 on the 4-island run; on the 16-island run they
  // exceed the hardware threads of most hosts, so waiters park at once.
  for (int islands : {4, 16}) {
    const auto serial = chatty_run(islands, 1);
    EXPECT_FALSE(serial.empty());
    for (unsigned threads : {2u, 4u, 8u}) {
      EXPECT_EQ(chatty_run(islands, threads), serial)
          << "islands=" << islands << " threads=" << threads;
    }
  }
}

TEST(IslandCoordinator, ThreadCountChangeBetweenRunsIsRaceFree) {
  // Changing the worker count between runs respawns the pool; a new worker
  // must wait for the next epoch rather than rerun the last one while the
  // coordinator drains the mailboxes posted between runs.
  auto run = [](const std::vector<unsigned>& plan) {
    Chatty c(4);
    Micros t = 0;
    for (std::size_t r = 0; r < plan.size(); ++r) {
      t += 9'000;
      c.run_until(plan[r], t);
      for (int src = 0; src < 4; ++src) c.send(src, 100 * static_cast<int>(r) + src);
    }
    c.run_until(plan.back(), t + 9'000);
    return c.merged_log();
  };
  const auto serial = run({1, 1, 1, 1, 1});
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(run({4, 2, 3, 1, 4}), serial);
}

TEST(IslandCoordinator, ThreadsFromEnv) {
  ::unsetenv("CTS_SIM_THREADS");
  EXPECT_EQ(sim::threads_from_env(3), 3u);
  ::setenv("CTS_SIM_THREADS", "4", 1);
  EXPECT_EQ(sim::threads_from_env(1), 4u);
  ::setenv("CTS_SIM_THREADS", "0", 1);
  EXPECT_EQ(sim::threads_from_env(2), 2u);
  ::setenv("CTS_SIM_THREADS", "junk", 1);
  EXPECT_EQ(sim::threads_from_env(2), 2u);
  ::unsetenv("CTS_SIM_THREADS");
}

// --- Archipelago: the full-stack determinism contract ---------------------

struct ArchRun {
  std::string trace;
  std::string metrics;
  std::uint64_t deliveries = 0;
  std::uint64_t egress = 0;
  std::uint64_t forwards = 0;
};

// Build a 3-ring archipelago, drive cross-ring stamped traffic (with an
// optional loss + crash/restart schedule on ring 1, and optionally KV puts
// through every ring's gateway), and export the merged observability
// documents.
ArchRun arch_run(std::uint64_t seed, unsigned threads, bool faults, bool kv = false) {
  app::ArchipelagoConfig cfg;
  cfg.topo.rings = 3;
  cfg.topo.servers = 3;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.link_latency_us = 800;
  if (faults) cfg.ring.net.loss_probability = 0.01;
  if (kv) {
    cfg.app = [](const app::ShardMap& map, std::size_t ring) {
      return app::kv_store_factory({.shard_map = &map, .ring = ring});
    };
  }
  app::Archipelago ar(cfg);

  // Ring 1 echoes every stamped delivery back to ring 0 (replica 0 only,
  // so the echo is one logical broadcast per message).
  ar.on_stamped([&ar](std::size_t ring, std::uint32_t replica, Micros, const Bytes& body) {
    if (ring == 1 && replica == 0 && !body.empty() && body[0] != 0xEE) {
      ar.stamped_broadcast_at(ar.ring(1).sim().now() + 1'000, 1, 0, Bytes{0xEE});
    }
  });
  ar.start(400'000);

  for (int k = 0; k < 10; ++k) {
    const Micros at = 500'000 + 150'000 * k;
    ar.stamped_broadcast_at(at, 0, 1, Bytes{static_cast<std::uint8_t>(k)});
    ar.stamped_broadcast_at(at + 40'000, 2, 0, Bytes{0x40, static_cast<std::uint8_t>(k)});
  }
  if (faults) {
    ar.ring(1).sim().at(900'000, [&ar] { ar.crash_server(1, 2); });
    ar.ring(1).sim().at(1'400'000, [&ar] { ar.restart_server(1, 2); });
  }
  // Each ring's gateway puts keys of every ring, so some requests are
  // forwarded to their owner over the link.
  for (std::size_t r = 0; kv && r < 3; ++r) {
    for (int k = 0; k < 8; ++k) {
      ar.ring(r).sim().at(600'000 + 120'000 * k + 9'000 * static_cast<Micros>(r), [&ar, r, k] {
        ar.router(r).route(app::kv_put("k" + std::to_string(k), "v"), [](const Bytes&) {});
      });
    }
  }
  ar.run_until(3'000'000);

  ArchRun out;
  out.trace = obs::merged_trace_jsonl(ar.recorders());
  out.metrics = obs::merged_metrics_json(ar.recorders());
  for (std::size_t r = 0; r < ar.ring_count(); ++r) {
    out.deliveries += ar.stamped_deliveries(r);
    out.forwards += ar.ring(r).recorder().counter("gateway.forwards").value;
  }
  out.egress = ar.link().total_stats().frames_sent;
  return out;
}

TEST(ArchipelagoDeterminism, SerialAndParallelByteIdentical) {
  // Five seeds; the last three add loss plus a crash/restart schedule, and
  // the last one KV traffic through the gateways.  Each
  // seed's serial run is the reference; 2-, 4- and 8-worker runs (4 and 8
  // clamp to the 3 rings) must match it byte for byte, trace and metrics
  // both, with the oracle on and aborting (Testbed default) in every mode.
  struct Case {
    std::uint64_t seed;
    bool faults;
    bool kv;
  };
  for (const Case cs : {Case{11, false, false}, Case{22, false, false}, Case{33, true, false},
                        Case{44, true, false}, Case{55, true, true}}) {
    const ArchRun ref = arch_run(cs.seed, 1, cs.faults, cs.kv);
    ASSERT_GT(ref.deliveries, 0u) << "seed " << cs.seed;
    ASSERT_GT(ref.egress, 0u) << "seed " << cs.seed;
    if (cs.kv) {
      ASSERT_GT(ref.forwards, 0u) << "seed " << cs.seed;
    }
    for (unsigned threads : {2u, 4u, 8u}) {
      const ArchRun par = arch_run(cs.seed, threads, cs.faults, cs.kv);
      EXPECT_EQ(par.trace, ref.trace) << "seed " << cs.seed << " threads " << threads;
      EXPECT_EQ(par.metrics, ref.metrics) << "seed " << cs.seed << " threads " << threads;
      EXPECT_EQ(par.deliveries, ref.deliveries)
          << "seed " << cs.seed << " threads " << threads;
      EXPECT_EQ(par.egress, ref.egress) << "seed " << cs.seed << " threads " << threads;
    }
  }
}

TEST(ArchipelagoDeterminism, CrossRingCausalityUnderParallelRun) {
  // A->B then B->A reply: the reply's timestamp must exceed the original's
  // (causal floor), observed under a 2-worker parallel run.
  app::ArchipelagoConfig cfg;
  cfg.topo.rings = 2;
  cfg.threads = 2;
  cfg.seed = 7;
  app::Archipelago ar(cfg);

  // Written only by the respective ring's worker.
  std::vector<Micros> seen_at_1;
  std::vector<Micros> seen_at_0;
  ar.on_stamped([&](std::size_t ring, std::uint32_t replica, Micros ts, const Bytes& body) {
    if (ring == 1) {
      if (replica == 0 && body.size() == 1 && body[0] == 1) {
        ar.stamped_broadcast_at(ar.ring(1).sim().now() + 500, 1, 0, Bytes{2});
      }
      seen_at_1.push_back(ts);
    } else {
      seen_at_0.push_back(ts);
    }
  });
  ar.start(400'000);
  ar.stamped_broadcast_at(500'000, 0, 1, Bytes{1});
  ar.run_until(2'500'000);

  ASSERT_FALSE(seen_at_1.empty());
  ASSERT_FALSE(seen_at_0.empty());
  // Every reply stamp (read from B's group clock after its floor rose past
  // A's timestamp) is strictly greater than A's original stamp.
  EXPECT_GT(seen_at_0.front(), seen_at_1.front());
  EXPECT_GT(ar.stamped_deliveries(0), 0u);
  EXPECT_GT(ar.stamped_deliveries(1), 0u);
}

// The Archipelago sets these per ring from topo, seed, oracle and app, so
// a value in the ring template would be dropped: it is refused instead.
TEST(ArchipelagoConfigTest, PerRingFieldsOfTheRingTemplateAreRefused) {
  auto build = [](auto set) {
    app::ArchipelagoConfig cfg;
    set(cfg.ring);
    app::Archipelago ar(cfg);
  };
  EXPECT_NO_THROW(build([](app::TestbedConfig& t) { t.net.loss_probability = 0.01; }));
  EXPECT_THROW(build([](app::TestbedConfig& t) { t.seed = 9; }), std::invalid_argument);
  EXPECT_THROW(build([](app::TestbedConfig& t) { t.oracle = false; }), std::invalid_argument);
  EXPECT_THROW(build([](app::TestbedConfig& t) { t.factory = app::kv_store_factory(); }),
               std::invalid_argument);
}

}  // namespace
}  // namespace cts
