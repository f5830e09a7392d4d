// cts::FlatMap / FlatSet / DenseNodeIndex: the deterministic flat
// containers under the delivery pipeline (src/common/flat_map.hpp).
//
// Two layers of evidence:
//  1. A randomized fuzz drives FlatMap and a std::map oracle through the
//     same 50k-operation script and demands identical contents, identical
//     iteration order, and identical lookup answers at every step — for
//     plain integer keys and for the packed tuple keys the GCS/oracle
//     migrations rely on (pack order == tuple lexicographic order).
//  2. Whole-stack double runs: the migrated pipeline must export
//     byte-identical artifacts across identical-seed runs in happy,
//     failover, lossy, and sharded scenarios (the container swap is only
//     correct if no iteration-order change leaked into the schedule).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace cts {
namespace {

// --- fuzz vs std::map oracle ---------------------------------------------------

/// A packed stream key shaped like the GCS/oracle migrations: comparison
/// must reproduce std::tuple<u64, u64, u64> lexicographic order.
struct PackedKey {
  std::uint64_t hi = 0;
  std::uint64_t mid = 0;
  std::uint64_t lo = 0;
  auto operator<=>(const PackedKey&) const = default;
};

template <typename Key>
struct KeyGen {
  static Key make(Rng& rng);
};

template <>
struct KeyGen<std::uint32_t> {
  static std::uint32_t make(Rng& rng) {
    return static_cast<std::uint32_t>(rng.range(0, 400));
  }
};

template <>
struct KeyGen<std::uint64_t> {
  static std::uint64_t make(Rng& rng) {
    // Packed (hi, lo) pairs: exercise pack_u32_pair ordering.
    return pack_u32_pair(static_cast<std::uint32_t>(rng.range(0, 20)),
                         static_cast<std::uint32_t>(rng.range(0, 20)));
  }
};

template <>
struct KeyGen<PackedKey> {
  static PackedKey make(Rng& rng) {
    return PackedKey{static_cast<std::uint64_t>(rng.range(0, 8)),
                     static_cast<std::uint64_t>(rng.range(0, 8)),
                     static_cast<std::uint64_t>(rng.range(0, 8))};
  }
};

template <typename Key>
void fuzz_against_std_map(std::uint64_t seed, int steps) {
  Rng rng(seed);
  FlatMap<Key, std::uint64_t> flat;
  std::map<Key, std::uint64_t> oracle;

  const auto check_equal = [&] {
    ASSERT_EQ(flat.size(), oracle.size());
    auto fit = flat.begin();
    for (const auto& [k, v] : oracle) {
      ASSERT_TRUE(fit != flat.end());
      ASSERT_TRUE(fit->first == k) << "iteration order diverged from std::map";
      ASSERT_EQ(fit->second, v);
      ++fit;
    }
    ASSERT_TRUE(fit == flat.end());
  };

  for (int i = 0; i < steps; ++i) {
    const Key k = KeyGen<Key>::make(rng);
    switch (rng.range(0, 9)) {
      case 0:
      case 1:
      case 2: {  // operator[] upsert
        const auto v = static_cast<std::uint64_t>(i);
        flat[k] = v;
        oracle[k] = v;
        break;
      }
      case 3: {  // try_emplace (no overwrite)
        const auto v = static_cast<std::uint64_t>(i) * 3u;
        const auto [fit, fok] = flat.try_emplace(k, v);
        const auto [oit, ook] = oracle.try_emplace(k, v);
        ASSERT_EQ(fok, ook);
        ASSERT_EQ(fit->second, oit->second);
        break;
      }
      case 4: {  // insert_or_assign
        const auto v = static_cast<std::uint64_t>(i) * 7u;
        ASSERT_EQ(flat.insert_or_assign(k, v).second,
                  oracle.insert_or_assign(k, v).second);
        break;
      }
      case 5: {  // erase by key
        ASSERT_EQ(flat.erase(k), oracle.erase(k));
        break;
      }
      case 6: {  // find / contains / count
        const auto fit = flat.find(k);
        const auto oit = oracle.find(k);
        ASSERT_EQ(fit == flat.end(), oit == oracle.end());
        if (oit != oracle.end()) {
          ASSERT_EQ(fit->second, oit->second);
        }
        ASSERT_EQ(flat.contains(k), oracle.contains(k));
        ASSERT_EQ(flat.count(k), oracle.count(k));
        break;
      }
      case 7: {  // lower_bound / upper_bound agree
        const auto flb = flat.lower_bound(k);
        const auto olb = oracle.lower_bound(k);
        ASSERT_EQ(flb == flat.end(), olb == oracle.end());
        if (olb != oracle.end()) {
          ASSERT_TRUE(flb->first == olb->first);
        }
        const auto fub = flat.upper_bound(k);
        const auto oub = oracle.upper_bound(k);
        ASSERT_EQ(fub == flat.end(), oub == oracle.end());
        if (oub != oracle.end()) {
          ASSERT_TRUE(fub->first == oub->first);
        }
        break;
      }
      case 8: {  // erase_if over a key-dependent predicate (occasionally)
        if (rng.range(0, 50) == 0) {
          const auto pred_flat = [](const auto& kv) { return kv.second % 5u == 0u; };
          const std::size_t f = erase_if(flat, pred_flat);
          const std::size_t o = std::erase_if(
              oracle, [](const auto& kv) { return kv.second % 5u == 0u; });
          ASSERT_EQ(f, o);
        }
        break;
      }
      case 9: {  // batch insert a small run
        std::vector<std::pair<Key, std::uint64_t>> batch;
        const int n = static_cast<int>(rng.range(0, 6));
        for (int j = 0; j < n; ++j) {
          batch.emplace_back(KeyGen<Key>::make(rng),
                             static_cast<std::uint64_t>(i * 100 + j));
        }
        flat.insert_batch(batch.begin(), batch.end());
        // insert() semantics: existing keys win, first batch occurrence wins.
        for (const auto& kv : batch) oracle.insert(kv);
        break;
      }
      default:
        break;
    }
    if (i % 977 == 0) check_equal();
  }
  check_equal();
}

TEST(FlatMapFuzz, MatchesStdMapU32Keys) { fuzz_against_std_map<std::uint32_t>(1, 50'000); }
TEST(FlatMapFuzz, MatchesStdMapPackedU64Keys) { fuzz_against_std_map<std::uint64_t>(2, 50'000); }
TEST(FlatMapFuzz, MatchesStdMapPackedTupleKeys) { fuzz_against_std_map<PackedKey>(3, 50'000); }

TEST(FlatMapFuzz, PackU32PairIsLexicographic) {
  // The packed u64's operator< must reproduce (hi, lo) tuple order — the
  // property every packed-key migration in gcs/oracle leans on.
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto a_hi = static_cast<std::uint32_t>(rng.range(0, 1000));
    const auto a_lo = static_cast<std::uint32_t>(rng.range(0, 1000));
    const auto b_hi = static_cast<std::uint32_t>(rng.range(0, 1000));
    const auto b_lo = static_cast<std::uint32_t>(rng.range(0, 1000));
    const bool tuple_less = std::pair{a_hi, a_lo} < std::pair{b_hi, b_lo};
    ASSERT_EQ(pack_u32_pair(a_hi, a_lo) < pack_u32_pair(b_hi, b_lo), tuple_less);
  }
}

TEST(FlatSetFuzz, MatchesStdSet) {
  Rng rng(11);
  FlatSet<std::uint32_t> flat;
  std::set<std::uint32_t> oracle;
  for (int i = 0; i < 50'000; ++i) {
    const auto k = static_cast<std::uint32_t>(rng.range(0, 300));
    switch (rng.range(0, 2)) {
      case 0:
        ASSERT_EQ(flat.insert(k).second, oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(flat.erase(k), oracle.erase(k));
        break;
      case 2:
        ASSERT_EQ(flat.contains(k), oracle.contains(k) ? true : false);
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(flat.size(), oracle.size());
  auto fit = flat.begin();
  for (std::uint32_t k : oracle) {
    ASSERT_EQ(*fit, k);
    ++fit;
  }
}

TEST(DenseNodeIndexTest, MatchesStdMapIterationOrder) {
  Rng rng(13);
  DenseNodeIndex<std::uint64_t> dense;
  std::map<std::uint32_t, std::uint64_t> oracle;
  for (int i = 0; i < 50'000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.range(0, 64));
    if (rng.range(0, 3) == 0) {
      ASSERT_EQ(dense.erase(id), oracle.erase(id) > 0);
    } else {
      dense.ensure(id) = static_cast<std::uint64_t>(i);
      oracle[id] = static_cast<std::uint64_t>(i);
    }
    ASSERT_EQ(dense.contains(id), oracle.contains(id));
  }
  ASSERT_EQ(dense.size(), oracle.size());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> walked;
  dense.for_each([&](std::uint32_t id, std::uint64_t& v) { walked.emplace_back(id, v); });
  ASSERT_EQ(walked.size(), oracle.size());
  auto oit = oracle.begin();
  for (const auto& [id, v] : walked) {
    EXPECT_EQ(id, oit->first);
    EXPECT_EQ(v, oit->second);
    ++oit;
  }
}

TEST(DenseNodeIndexTest, EraseKeepsOtherSlotPointersValid) {
  DenseNodeIndex<int> dense;
  dense.ensure(0) = 10;
  dense.ensure(5) = 50;
  int* p0 = dense.find(0);
  ASSERT_NE(p0, nullptr);
  dense.erase(5);            // erase never reallocates
  EXPECT_EQ(*p0, 10);
  EXPECT_FALSE(dense.contains(5));
  dense.ensure(5) = 51;      // re-ensure of an existing slot: no realloc either
  EXPECT_EQ(*p0, 10);
}

TEST(FlatMapTest, InsertBatchMatchesInsertLoop) {
  // Equal keys: existing entries win, then earlier batch entries win —
  // exactly a loop of insert() calls.
  FlatMap<int, std::string> batched;
  batched[3] = "existing";
  std::vector<std::pair<int, std::string>> batch = {
      {5, "five"}, {3, "batch-three"}, {1, "one"}, {5, "five-dup"}, {2, "two"}};
  batched.insert_batch(batch.begin(), batch.end());

  FlatMap<int, std::string> looped;
  looped[3] = "existing";
  for (const auto& kv : batch) looped.insert(kv);

  EXPECT_TRUE(batched == looped);
  EXPECT_EQ(batched.at(3), "existing");
  EXPECT_EQ(batched.at(5), "five");
  EXPECT_EQ(batched.size(), 4u);
}

// --- whole-stack double-run byte-identity --------------------------------------

/// Drive a Testbed scenario and return its exported metrics JSON plus a
/// digest of every live replica's reply history — the artifacts that would
/// change if the flat-container swap perturbed any iteration order.
struct ScenarioResult {
  std::string metrics_json;
  std::vector<std::uint64_t> digests;

  friend bool operator==(const ScenarioResult&, const ScenarioResult&) = default;
};

enum class Scenario { kHappy, kFailover, kLossy };

ScenarioResult run_scenario(Scenario sc, std::uint64_t seed) {
  app::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.factory = app::kv_store_factory();
  if (sc == Scenario::kLossy) {
    cfg.net.loss_probability = 0.05;
    cfg.net.corrupt_probability = 0.01;
  }
  app::Testbed tb(cfg);
  tb.start();

  bool done = false;
  auto driver = [&]() -> sim::Task {
    for (int i = 0; i < 25; ++i) {
      co_await tb.sim().delay(900);
      const Bytes r = co_await tb.client().call(
          app::kv_put("key" + std::to_string(i % 7), "v" + std::to_string(i)));
      (void)r;
      if (sc == Scenario::kFailover && i == 8) tb.crash_server(1);
      if (sc == Scenario::kFailover && i == 16) tb.restart_server(1);
    }
    done = true;
  };
  driver();
  const Micros deadline = tb.sim().now() + 200'000'000;
  while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
  tb.sim().run_for(5'000'000);
  EXPECT_TRUE(done);

  ScenarioResult out;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    if (!tb.clock_of(tb.server_node(s)).alive()) continue;
    for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
      out.digests.push_back(tb.server(s).app(sh).state_digest());
    }
  }
  tb.recorder().sync_sim_stats();
  out.metrics_json = tb.recorder().metrics().to_json();
  return out;
}

TEST(FlatContainerDoubleRun, HappyScenarioByteIdentical) {
  const auto a = run_scenario(Scenario::kHappy, 42);
  const auto b = run_scenario(Scenario::kHappy, 42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.metrics_json.empty());
}

TEST(FlatContainerDoubleRun, FailoverScenarioByteIdentical) {
  const auto a = run_scenario(Scenario::kFailover, 43);
  const auto b = run_scenario(Scenario::kFailover, 43);
  EXPECT_EQ(a, b);
}

TEST(FlatContainerDoubleRun, LossyScenarioByteIdentical) {
  const auto a = run_scenario(Scenario::kLossy, 44);
  const auto b = run_scenario(Scenario::kLossy, 44);
  EXPECT_EQ(a, b);
}

TEST(FlatContainerDoubleRun, ShardedScenarioByteIdentical) {
  // Sharded replicas: four logical threads per replica, key-routed
  // requests — the multi-stream shape that exercises the packed
  // (conn, type, tag) FlatMap keys hardest.
  const auto run = [] {
    app::TestbedConfig cfg;
    cfg.seed = 45;
    cfg.factory = app::kv_store_factory();
    cfg.shards = 4;
    cfg.shard_fn = app::kv_shard_of;
    app::Testbed tb(cfg);
    tb.start();

    bool done = false;
    auto driver = [&]() -> sim::Task {
      for (int i = 0; i < 30; ++i) {
        co_await tb.sim().delay(800);
        co_await tb.client().call(
            app::kv_put("key" + std::to_string(i), "v" + std::to_string(i)));
      }
      done = true;
    };
    driver();
    const Micros deadline = tb.sim().now() + 200'000'000;
    while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 100'000);
    tb.sim().run_for(3'000'000);
    EXPECT_TRUE(done);

    ScenarioResult out;
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
        out.digests.push_back(tb.server(s).app(sh).state_digest());
      }
    }
    tb.recorder().sync_sim_stats();
    out.metrics_json = tb.recorder().metrics().to_json();
    return out;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cts
