// Tests for the services built ON TOP of the group clock: group-time
// deadlines (DeadlineIndex) and unique-id generation
// (ConsistentIdGenerator) — the two motivating use cases from the paper's
// introduction.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cts/consistent_time_service.hpp"
#include "cts/deadlines.hpp"
#include "cts/id_gen.hpp"
#include "cts_rig.hpp"
#include "sim/simulator.hpp"

namespace cts::ccs {
namespace {

// --- DeadlineIndex ------------------------------------------------------------

using Expired = std::vector<std::pair<int, std::uint64_t>>;  // (key, stamp)

/// Expire `idx` at `now`, returning what expired in expiry order.
Expired expire_at(DeadlineIndex<int>& idx, Micros now) {
  Expired out;
  idx.expire(now, [&](const int& key, std::uint64_t stamp) { out.emplace_back(key, stamp); });
  return out;
}

TEST(DeadlineIndexTest, ExpiresInDeadlineOrder) {
  DeadlineIndex<int> idx;
  // Armed in a scrambled order; deadlines decide the expiry order.
  idx.arm(30, 1, 3);
  idx.arm(10, 2, 1);
  idx.arm(20, 3, 2);
  EXPECT_TRUE(expire_at(idx, 5).empty());
  EXPECT_EQ(expire_at(idx, 25), (Expired{{1, 2}, {2, 3}}));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(expire_at(idx, 100), (Expired{{3, 1}}));
  EXPECT_EQ(idx.size(), 0u);
}

TEST(DeadlineIndexTest, EqualDeadlinesExpireInStampOrder) {
  DeadlineIndex<int> idx;
  idx.arm(10, 7, 70);
  idx.arm(10, 2, 20);
  idx.arm(10, 5, 50);
  EXPECT_EQ(expire_at(idx, 10), (Expired{{20, 2}, {50, 5}, {70, 7}}));
}

TEST(DeadlineIndexTest, DisarmedEntriesNeverExpire) {
  DeadlineIndex<int> idx;
  idx.arm(10, 1, 1);
  idx.arm(10, 2, 2);
  EXPECT_TRUE(idx.disarm(10, 1));
  EXPECT_FALSE(idx.disarm(10, 1));  // already gone
  EXPECT_FALSE(idx.disarm(11, 2));  // the stamp alone does not name an entry
  EXPECT_EQ(expire_at(idx, 50), (Expired{{2, 2}}));
  EXPECT_FALSE(idx.disarm(10, 2));  // expired
}

TEST(DeadlineIndexTest, DeadlineEqualToNowExpires) {
  DeadlineIndex<int> idx;
  idx.arm(100, 1, 1);
  EXPECT_TRUE(expire_at(idx, 99).empty());
  EXPECT_EQ(expire_at(idx, 100), (Expired{{1, 1}}));
}

TEST(DeadlineIndexTest, ClearThenRearm) {
  DeadlineIndex<int> idx;
  idx.arm(10, 1, 1);
  idx.arm(20, 2, 2);
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(expire_at(idx, 1'000).empty());
  // A restore re-arms what its checkpoint carries, stamps included.
  idx.arm(20, 2, 2);
  idx.arm(5, 9, 9);
  EXPECT_EQ(expire_at(idx, 1'000), (Expired{{9, 9}, {2, 2}}));
}

// --- ConsistentIdGenerator ------------------------------------------------------

TEST(IdGenTest, MixIsDeterministic) {
  EXPECT_EQ(ConsistentIdGenerator::mix(100, 1, 7), ConsistentIdGenerator::mix(100, 1, 7));
  EXPECT_NE(ConsistentIdGenerator::mix(100, 1, 7), ConsistentIdGenerator::mix(100, 2, 7));
  EXPECT_NE(ConsistentIdGenerator::mix(100, 1, 7), ConsistentIdGenerator::mix(100, 1, 8));
  EXPECT_NE(ConsistentIdGenerator::mix(100, 1, 7), ConsistentIdGenerator::mix(101, 1, 7));
}

TEST(IdGenTest, MixAvalanche) {
  // Neighbouring inputs should produce wildly different ids (they feed hash
  // tables); check a weak avalanche property.
  int close = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto a = ConsistentIdGenerator::mix(1'000'000 + i, 1, 1);
    const auto b = ConsistentIdGenerator::mix(1'000'000 + i + 1, 1, 1);
    if (__builtin_popcountll(a ^ b) < 16) ++close;
  }
  EXPECT_LT(close, 10);
}

sim::Task mint(ConsistentIdGenerator& gen, std::vector<std::uint64_t>& out, int n,
               sim::Simulator& sim) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(100);
    out.push_back(co_await gen.make_id());
  }
}

TEST(IdGenTest, ReplicasMintIdenticalIdSequences) {
  CtsRig rig(3);
  rig.start();
  std::vector<std::unique_ptr<ConsistentIdGenerator>> gens;
  std::vector<std::vector<std::uint64_t>> ids(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    gens.push_back(std::make_unique<ConsistentIdGenerator>(*rig.svcs[i], ThreadId{50}, 1));
    mint(*gens.back(), ids[i], 20, rig.sim);
  }
  rig.sim.run_for(60'000'000);
  ASSERT_EQ(ids[0].size(), 20u);
  EXPECT_EQ(ids[1], ids[0]);
  EXPECT_EQ(ids[2], ids[0]);
}

TEST(IdGenTest, IdsAreUniqueWithinAGenerator) {
  CtsRig rig(2);
  rig.start();
  ConsistentIdGenerator g0(*rig.svcs[0], ThreadId{50}, 1);
  ConsistentIdGenerator g1(*rig.svcs[1], ThreadId{50}, 1);
  std::vector<std::uint64_t> ids0, ids1;
  mint(g0, ids0, 50, rig.sim);
  mint(g1, ids1, 50, rig.sim);
  rig.sim.run_for(120'000'000);
  ASSERT_EQ(ids0.size(), 50u);
  std::set<std::uint64_t> uniq(ids0.begin(), ids0.end());
  EXPECT_EQ(uniq.size(), ids0.size());
}

TEST(IdGenTest, DifferentNamespacesNeverCollide) {
  // Two groups minting from similar clock values must not collide; the
  // namespace separates them.  Tested at the mix level across a large
  // sample.
  std::set<std::uint64_t> a, b;
  for (std::uint64_t c = 1; c <= 10'000; ++c) {
    a.insert(ConsistentIdGenerator::mix(1'000'000, c, 1));
    b.insert(ConsistentIdGenerator::mix(1'000'000, c, 2));
  }
  std::vector<std::uint64_t> inter;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(inter));
  EXPECT_TRUE(inter.empty());
}

TEST(IdGenTest, CounterTracksMintedIds) {
  CtsRig rig(2);
  rig.start();
  ConsistentIdGenerator g0(*rig.svcs[0], ThreadId{50}, 1);
  ConsistentIdGenerator g1(*rig.svcs[1], ThreadId{50}, 1);
  std::vector<std::uint64_t> ids0, ids1;
  mint(g0, ids0, 5, rig.sim);
  mint(g1, ids1, 5, rig.sim);
  rig.sim.run_for(30'000'000);
  EXPECT_EQ(g0.minted(), 5u);
}

}  // namespace
}  // namespace cts::ccs
