// Unit tests for hash-chained checkpoint batches: chain construction,
// wire round-trip, and rejection of every tampering class a recovering
// replica must survive (flipped snapshot bytes, altered or reordered
// headers, truncation, trailing garbage).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "replication/checkpoint_chain.hpp"

namespace cts::replication {
namespace {

Bytes snap(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// A three-link chain over successive snapshots, plus the newest snapshot.
std::pair<std::vector<CheckpointHeader>, Bytes> sample_chain() {
  std::vector<CheckpointHeader> chain;
  extend_chain(chain, 10, snap("state-after-10"));
  extend_chain(chain, 25, snap("state-after-25"));
  Bytes newest = snap("state-after-40");
  extend_chain(chain, 40, newest);
  return {chain, newest};
}

TEST(CheckpointChainTest, RoundTripVerifies) {
  auto [chain, newest] = sample_chain();
  const Bytes payload = encode_chained_checkpoint(newest, chain);
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(verify_chained_checkpoint(*d));
  EXPECT_EQ(d->headers, chain);
  EXPECT_TRUE(std::equal(d->snapshot.begin(), d->snapshot.end(), newest.begin(), newest.end()));
}

TEST(CheckpointChainTest, LinksChainParentToChild) {
  auto [chain, newest] = sample_chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].parent, 0u);
  EXPECT_EQ(chain[1].parent, chain[0].link);
  EXPECT_EQ(chain[2].parent, chain[1].link);
  for (const auto& h : chain) EXPECT_EQ(h.link, chain_link(h.upto, h.digest, h.parent));
  EXPECT_EQ(chain.back().digest, snapshot_digest(newest));
}

TEST(CheckpointChainTest, TamperedSnapshotByteIsRejected) {
  auto [chain, newest] = sample_chain();
  Bytes payload = encode_chained_checkpoint(newest, chain);
  payload[4] ^= 0x01;  // first snapshot byte (after the u32 length prefix)
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());  // structurally intact...
  EXPECT_FALSE(verify_chained_checkpoint(*d));  // ...but the digest disagrees
}

TEST(CheckpointChainTest, TamperedHeaderFieldIsRejected) {
  auto [chain, newest] = sample_chain();
  chain[1].upto += 1;  // inflate the middle header's covered count
  // Keep the encoded payload alive: DecodedCheckpoint::snapshot aliases it.
  const Bytes payload = encode_chained_checkpoint(newest, chain);
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(verify_chained_checkpoint(*d));  // its link no longer recomputes
}

TEST(CheckpointChainTest, RelinkedTamperStillBreaksTheChain) {
  // An attacker who alters a header AND recomputes its link still loses:
  // the next header's parent no longer matches.
  auto [chain, newest] = sample_chain();
  chain[1].upto += 1;
  chain[1].link = chain_link(chain[1].upto, chain[1].digest, chain[1].parent);
  // Keep the encoded payload alive: DecodedCheckpoint::snapshot aliases it.
  const Bytes payload = encode_chained_checkpoint(newest, chain);
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(verify_chained_checkpoint(*d));
}

TEST(CheckpointChainTest, ReorderedHeadersAreRejected) {
  auto [chain, newest] = sample_chain();
  std::swap(chain[0], chain[1]);
  // Keep the encoded payload alive: DecodedCheckpoint::snapshot aliases it.
  const Bytes payload = encode_chained_checkpoint(newest, chain);
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(verify_chained_checkpoint(*d));
}

TEST(CheckpointChainTest, CoveredCountMustNotDecrease) {
  // Two self-consistent links whose covered counts run backwards: each link
  // recomputes and the newest digest matches the snapshot, but the history
  // is impossible and must be rejected.
  const Bytes newest = snap("older");
  const auto chain_with_newest_upto = [&](std::uint64_t upto) {
    CheckpointHeader a;
    a.upto = 50;
    a.digest = snapshot_digest(snap("newer"));
    a.parent = 0;
    a.link = chain_link(a.upto, a.digest, a.parent);
    CheckpointHeader b;
    b.upto = upto;
    b.digest = snapshot_digest(newest);
    b.parent = a.link;
    b.link = chain_link(b.upto, b.digest, b.parent);
    return std::vector<CheckpointHeader>{a, b};
  };
  // Keep the encoded payloads alive: DecodedCheckpoint::snapshot aliases them.
  const Bytes forward = encode_chained_checkpoint(newest, chain_with_newest_upto(60));
  auto ok = decode_chained_checkpoint(forward);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(verify_chained_checkpoint(*ok)) << "control: the same chain counting forward";
  const Bytes backward = encode_chained_checkpoint(newest, chain_with_newest_upto(20));
  auto d = decode_chained_checkpoint(backward);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(verify_chained_checkpoint(*d));
}

TEST(CheckpointChainTest, TruncatedPayloadFailsDecode) {
  auto [chain, newest] = sample_chain();
  Bytes payload = encode_chained_checkpoint(newest, chain);
  payload.pop_back();
  EXPECT_FALSE(decode_chained_checkpoint(payload).has_value());
}

TEST(CheckpointChainTest, TrailingGarbageFailsDecode) {
  auto [chain, newest] = sample_chain();
  Bytes payload = encode_chained_checkpoint(newest, chain);
  payload.push_back(0xee);
  EXPECT_FALSE(decode_chained_checkpoint(payload).has_value());
}

TEST(CheckpointChainTest, EmptyChainFailsDecode) {
  const Bytes newest = snap("s");
  EXPECT_FALSE(decode_chained_checkpoint(encode_chained_checkpoint(newest, {})).has_value());
}

TEST(CheckpointChainTest, RetakenUnchangedCheckpointDoesNotGrowTheChain) {
  std::vector<CheckpointHeader> chain;
  extend_chain(chain, 10, snap("same"));
  extend_chain(chain, 10, snap("same"));
  EXPECT_EQ(chain.size(), 1u);
  extend_chain(chain, 10, snap("different"));  // same point, new bytes: a new link
  EXPECT_EQ(chain.size(), 2u);
}

TEST(CheckpointChainTest, ChainIsBoundedAndStillVerifies) {
  std::vector<CheckpointHeader> chain;
  Bytes newest;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    newest = snap("state-" + std::to_string(i));
    extend_chain(chain, i, newest);
  }
  EXPECT_EQ(chain.size(), 64u);
  EXPECT_EQ(chain.front().upto, 37u);  // oldest retained link
  // Keep the encoded payload alive: DecodedCheckpoint::snapshot aliases it.
  const Bytes payload = encode_chained_checkpoint(newest, chain);
  auto d = decode_chained_checkpoint(payload);
  ASSERT_TRUE(d.has_value());
  // The truncated base is trusted: verification starts at the oldest
  // retained header, exactly as a recovering replica would.
  EXPECT_TRUE(verify_chained_checkpoint(*d));
}

}  // namespace
}  // namespace cts::replication
