// Unit tests for the topology layer (app/topology.hpp): the ShardMap is
// the single source of naming truth for sharded deployments — group ids,
// stamp streams, per-ring seeds, and request routing all come from it, so
// its invariants (disjointness, determinism, parse behaviour) are pinned
// here once instead of re-derived in every rig.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "app/kv_store.hpp"
#include "app/topology.hpp"
#include "common/bytes.hpp"

namespace cts::app {
namespace {

TEST(TopologyTest, ParseAcceptsRingsTimesServersAndBareRingCount) {
  const auto a = TopologySpec::parse("4x6");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->rings, 4u);
  EXPECT_EQ(a->servers, 6u);
  const auto b = TopologySpec::parse("16");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->rings, 16u);
  EXPECT_EQ(b->servers, TopologySpec{}.servers);
  EXPECT_FALSE(TopologySpec::parse("").has_value());
  EXPECT_FALSE(TopologySpec::parse("x3").has_value());
}

TEST(TopologyTest, GroupNamespacesAreDisjointAcrossRingsAndRoles) {
  const ShardMap map(TopologySpec{8, 3, true});
  std::set<std::uint32_t> ids;
  for (std::size_t r = 0; r < map.rings(); ++r) {
    ids.insert(map.server_group(r).value);
    ids.insert(map.client_group(r).value);
    ids.insert(map.cross_group(r).value);
  }
  // 8 rings x 3 roles, no collisions anywhere.
  EXPECT_EQ(ids.size(), 24u);
  // The cross-ring group must never alias a server group: stamped messages
  // delivered to a server group would be executed as garbage RMI requests.
  for (std::size_t r = 0; r < map.rings(); ++r) {
    for (std::size_t j = 0; j < map.rings(); ++j) {
      EXPECT_NE(map.cross_group(r).value, map.server_group(j).value);
    }
  }
}

TEST(TopologyTest, CrossGroupRoundTripsThroughRingOfCrossGroup) {
  const ShardMap map(TopologySpec{5, 3, true});
  for (std::size_t r = 0; r < map.rings(); ++r) {
    EXPECT_EQ(map.ring_of_cross_group(map.cross_group(r)), r);
  }
}

TEST(TopologyTest, StampStreamsAreDistinctPerRingAndPerApp) {
  const ShardMap map(TopologySpec{4, 3, true});
  std::set<std::uint32_t> tags;
  for (std::size_t r = 0; r < map.rings(); ++r) {
    tags.insert(map.ping_stream(r).value);
    tags.insert(map.kv_stream(r).value);
    tags.insert(map.session_stream(r).value);
  }
  EXPECT_EQ(tags.size(), 12u);
}

TEST(TopologyTest, RingSeedsDifferPerRingButAreDeterministic) {
  std::set<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 32; ++r) seeds.insert(ShardMap::ring_seed(7, r));
  EXPECT_EQ(seeds.size(), 32u);
  EXPECT_EQ(ShardMap::ring_seed(7, 5), ShardMap::ring_seed(7, 5));
  EXPECT_NE(ShardMap::ring_seed(7, 5), ShardMap::ring_seed(8, 5));
}

TEST(TopologyTest, KeyAndSessionPlacementIsStableAndInRange) {
  const ShardMap map(TopologySpec{16, 3, true});
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::size_t shard = map.shard_of_key(key);
    EXPECT_LT(shard, map.rings());
    EXPECT_EQ(shard, map.shard_of_key(key));  // pure function of the key
    const std::size_t s2 = map.shard_of_session(static_cast<std::uint64_t>(i) * 977 + 13);
    EXPECT_LT(s2, map.rings());
  }
  // All shards of a 16-ring map are actually reachable from small key sets
  // (ctsim's multi-ring KV client draws its keys from k0..k63).
  std::set<std::size_t> hit;
  for (int i = 0; i < 200; ++i) hit.insert(map.shard_of_key("k" + std::to_string(i)));
  EXPECT_EQ(hit.size(), map.rings());
}

TEST(TopologyTest, OwnerOfKvRequestRoutesByKeyAndRejectsGarbage) {
  const ShardMap map(TopologySpec{4, 3, true});
  const Bytes put = kv_put("alpha", "v");
  const auto owner = map.owner_of_kv_request(put);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, map.shard_of_key("alpha"));
  // Every KV verb on the same key routes to the same ring.
  EXPECT_EQ(map.owner_of_kv_request(kv_get("alpha")), owner);
  EXPECT_EQ(map.owner_of_kv_request(kv_del("alpha")), owner);
  EXPECT_EQ(map.owner_of_kv_request(kv_migrate("alpha", 2)), owner);

  // Non-KV and malformed payloads are not routable: the router serves them
  // locally instead of guessing.
  EXPECT_FALSE(map.owner_of_kv_request(Bytes{}).has_value());
  BytesWriter w;
  w.u8(200);  // op far outside the routable range
  w.str("alpha");
  EXPECT_FALSE(map.owner_of_kv_request(std::move(w).take()).has_value());
}

}  // namespace
}  // namespace cts::app
