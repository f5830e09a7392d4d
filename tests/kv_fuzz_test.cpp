// Fuzzed end-to-end workloads: random KV operations interleaved with
// random crash/recovery of replicas.  Invariants: every request is
// answered, live replicas never diverge, and lease decisions stay
// deterministic through arbitrary fault schedules.
#include <gtest/gtest.h>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"

namespace cts::app {
namespace {

struct FuzzParam {
  std::uint64_t seed;
  std::uint32_t shards;
  replication::ReplicationStyle style;
};

class KvCrashFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(KvCrashFuzz, LiveReplicasNeverDiverge) {
  const auto p = GetParam();
  TestbedConfig cfg;
  cfg.servers = 3;
  cfg.seed = p.seed;
  cfg.style = p.style;
  cfg.factory = kv_store_factory();
  cfg.shards = p.shards;
  if (p.shards > 1) cfg.shard_fn = kv_shard_of;
  if (p.style == replication::ReplicationStyle::kPassive) cfg.checkpoint_every = 6;
  Testbed tb(cfg);
  tb.start();

  Rng fuzz(p.seed * 7 + 1);
  int answered = 0, issued = 0;
  bool down[3] = {false, false, false};
  bool recovering[3] = {false, false, false};

  auto issue = [&] {
    const std::string key = "k" + std::to_string(fuzz.below(10));
    Bytes req;
    switch (fuzz.below(5)) {
      case 0:
        req = kv_put(key, "v" + std::to_string(issued), fuzz.below(3));
        break;
      case 1:
        req = kv_get(key);
        break;
      case 2:
        req = kv_del(key, fuzz.below(3));
        break;
      case 3:
        req = kv_acquire(key, 1 + fuzz.below(3), 1'000 + (Micros)fuzz.below(20'000));
        break;
      default:
        req = kv_release(key, 1 + fuzz.below(3));
        break;
    }
    ++issued;
    tb.client().invoke(std::move(req), [&](const Bytes&) { ++answered; });
  };

  for (int step = 0; step < 120; ++step) {
    tb.sim().run_for(fuzz.range(500, 5'000));
    const auto dice = fuzz.below(12);
    if (dice == 0) {
      // Crash one replica — but never reduce below a 2-live majority
      // (universe = client + 3 servers; 2 servers + client = 3 of 4).
      int live = 0;
      for (bool d : down) live += !d;
      if (live > 2) {
        const auto victim = fuzz.below(3);
        if (!down[victim] && !recovering[victim]) {
          down[victim] = true;
          tb.crash_server(static_cast<std::uint32_t>(victim));
        }
      }
    } else if (dice == 1) {
      for (std::uint32_t v = 0; v < 3; ++v) {
        if (down[v] && !recovering[v]) {
          recovering[v] = true;
          tb.restart_server(v, [&, v] {
            down[v] = false;
            recovering[v] = false;
          });
          break;
        }
      }
    } else {
      issue();
    }
  }

  // Quiesce: recover everyone, drain everything.
  for (std::uint32_t v = 0; v < 3; ++v) {
    if (down[v] && !recovering[v]) {
      recovering[v] = true;
      tb.restart_server(v, [&, v] {
        down[v] = false;
        recovering[v] = false;
      });
    }
  }
  const Micros deadline = tb.sim().now() + 600'000'000;
  while (tb.sim().now() < deadline) {
    tb.sim().run_until(tb.sim().now() + 100'000);
    bool settled = (answered == issued);
    for (std::uint32_t v = 0; v < 3; ++v) settled &= !down[v] && !recovering[v];
    if (settled) break;
  }

  EXPECT_EQ(answered, issued) << "seed " << p.seed << ": dropped replies";
  tb.sim().run_for(5'000'000);
  for (std::uint32_t s = 1; s < 3; ++s) {
    for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
      if (p.style == replication::ReplicationStyle::kPassive && !tb.server(s).is_primary()) {
        continue;
      }
      EXPECT_EQ(tb.server(s).app(sh).state_digest(), tb.server(0).app(sh).state_digest())
          << "seed " << p.seed << " server " << s << " shard " << sh;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, KvCrashFuzz,
    ::testing::Values(FuzzParam{201, 1, replication::ReplicationStyle::kActive},
                      FuzzParam{202, 1, replication::ReplicationStyle::kActive},
                      FuzzParam{203, 2, replication::ReplicationStyle::kActive},
                      FuzzParam{204, 4, replication::ReplicationStyle::kActive},
                      FuzzParam{205, 1, replication::ReplicationStyle::kSemiActive},
                      FuzzParam{206, 2, replication::ReplicationStyle::kSemiActive},
                      FuzzParam{207, 1, replication::ReplicationStyle::kActive},
                      FuzzParam{208, 4, replication::ReplicationStyle::kActive},
                      // Two shards finishing out of request order: replies
                      // shared one GCS dedup stream, and the client dropped
                      // the earlier one as a duplicate.
                      FuzzParam{305, 2, replication::ReplicationStyle::kSemiActive},
                      FuzzParam{306, 2, replication::ReplicationStyle::kSemiActive},
                      FuzzParam{317, 2, replication::ReplicationStyle::kActive},
                      FuzzParam{319, 2, replication::ReplicationStyle::kActive}),
    [](const ::testing::TestParamInfo<FuzzParam>& i) {
      const char* style =
          i.param.style == replication::ReplicationStyle::kActive ? "active" : "semiactive";
      return std::string("seed") + std::to_string(i.param.seed) + "_" + style + "_sh" +
             std::to_string(i.param.shards);
    });

}  // namespace
}  // namespace cts::app
