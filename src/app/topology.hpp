// Topology description layer — the ShardMap.
//
// ROADMAP item 1 promotes the archipelago from a demo wiring into the
// system's sharded backbone: N independent Totem rings, each carrying one
// replicated server group with its own group clock, stitched together by
// gateway links that carry causally stamped inter-ring traffic.  This
// header is the single place that wiring is DECLARED: which groups live on
// which ring, how keys and sessions map onto rings, which connection ids
// and stamp streams the cross-ring protocols use, and how per-ring seeds
// are derived.  Testbed/Archipelago/ctsim/bench all consume the
// same ShardMap instead of hand-building per-ring constants, so a topology
// change (more rings, more replicas) is one struct edit, not a sweep over
// five call sites.
//
// Everything here is deterministic and pure: the same spec and the same
// key always map to the same shard, on every replica of every ring, in
// serial and island-parallel runs alike.  doc/SHARDING.md documents the
// scheme; EXPERIMENTS.md documents the knobs that feed it.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace cts::app {

/// Declarative shape of a sharded deployment: how many rings, how many
/// server replicas per ring, whether each ring hosts an (unreplicated)
/// client node.  Parsed from ctsim's `--topology RxS` flag or built in
/// code; validated once by ShardMap.
struct TopologySpec {
  std::size_t rings = 1;
  std::size_t servers = 3;
  bool with_client = true;

  /// Parse a "RxS" topology string ("4x6" = 4 rings of 6 replicas).
  /// A bare "R" means R rings with the default replica count.
  static std::optional<TopologySpec> parse(std::string_view s) {
    TopologySpec spec;
    std::size_t i = 0;
    auto number = [&](std::size_t& out) {
      if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
      out = 0;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        out = out * 10 + static_cast<std::size_t>(s[i] - '0');
        ++i;
      }
      return true;
    };
    if (!number(spec.rings)) return std::nullopt;
    if (i < s.size()) {
      if (s[i] != 'x') return std::nullopt;
      ++i;
      if (!number(spec.servers) || i != s.size()) return std::nullopt;
    }
    if (spec.rings == 0 || spec.servers == 0) return std::nullopt;
    return spec;
  }
};

/// The deterministic ring/group/stream naming scheme plus the key- and
/// session-to-shard mapping.  One instance describes the whole deployment;
/// it is cheap to copy and safe to share read-only across islands (it is
/// immutable after construction — detlint's thread-hazard rules rely on
/// that).
class ShardMap {
 public:
  /// Group-id scheme: ring r's replicated server group, its (singleton)
  /// client group, and the cross-ring ingress group other rings stamp
  /// messages to.  The bases leave room for 100 rings before schemes
  /// collide; ShardMap's constructor enforces that bound.
  static constexpr std::uint32_t kServerGroupBase = 100;
  static constexpr std::uint32_t kClientGroupBase = 200;
  static constexpr std::uint32_t kCrossGroupBase = 300;

  /// Connection ids on the cross-ring links.  kPingConn carries the
  /// archipelago's liveness ping chain; the handoff connections carry the
  /// two-phase lease-transfer / session-migration protocol frames
  /// (doc/SHARDING.md).  Distinct conns keep the (conn, tag, seq) dedup
  /// streams of each protocol independent.
  static constexpr ConnectionId kPingConn{500};
  static constexpr ConnectionId kKvHandoffConn{600};
  static constexpr ConnectionId kSessionHandoffConn{601};

  /// Stamp-stream (thread/tag) bases: every CausalMessenger on ring r uses
  /// a ring-unique tag so receiver-side dedup streams never collide across
  /// protocols.  7000+r = ping chain, 7100+r = KV handoffs, 7200+r =
  /// session migrations.
  static constexpr std::uint32_t kPingStreamBase = 7000;
  static constexpr std::uint32_t kKvStreamBase = 7100;
  static constexpr std::uint32_t kSessionStreamBase = 7200;

  ShardMap() : ShardMap(TopologySpec{}) {}

  explicit ShardMap(TopologySpec spec) : spec_(spec) {
    if (spec_.rings == 0 || spec_.rings > kServerGroupBase) {
      throw std::invalid_argument("ShardMap: ring count must be in [1, 100]");
    }
    if (spec_.servers == 0) {
      throw std::invalid_argument("ShardMap: replica count must be >= 1");
    }
  }

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t rings() const { return spec_.rings; }
  [[nodiscard]] std::size_t servers() const { return spec_.servers; }

  [[nodiscard]] GroupId server_group(std::size_t ring) const {
    assert(ring < spec_.rings);
    return GroupId{kServerGroupBase + static_cast<std::uint32_t>(ring)};
  }
  [[nodiscard]] GroupId client_group(std::size_t ring) const {
    assert(ring < spec_.rings);
    return GroupId{kClientGroupBase + static_cast<std::uint32_t>(ring)};
  }
  /// The group ring `ring` SUBSCRIBES to for stamped cross-ring ingress;
  /// a message bound for ring r is addressed to cross_group(r).
  [[nodiscard]] GroupId cross_group(std::size_t ring) const {
    assert(ring < spec_.rings);
    return GroupId{kCrossGroupBase + static_cast<std::uint32_t>(ring)};
  }

  /// Inverse of cross_group: which ring owns a cross-ring ingress group.
  [[nodiscard]] std::optional<std::size_t> ring_of_cross_group(GroupId g) const {
    if (g.value < kCrossGroupBase || g.value >= kCrossGroupBase + spec_.rings) {
      return std::nullopt;
    }
    return g.value - kCrossGroupBase;
  }

  [[nodiscard]] ThreadId ping_stream(std::size_t ring) const {
    return ThreadId{kPingStreamBase + static_cast<std::uint32_t>(ring)};
  }
  [[nodiscard]] ThreadId kv_stream(std::size_t ring) const {
    return ThreadId{kKvStreamBase + static_cast<std::uint32_t>(ring)};
  }
  [[nodiscard]] ThreadId session_stream(std::size_t ring) const {
    return ThreadId{kSessionStreamBase + static_cast<std::uint32_t>(ring)};
  }

  /// Per-ring seed derivation: golden-ratio mixing keeps per-ring RNG
  /// streams decorrelated while remaining a pure function of (seed, ring),
  /// so serial and parallel runs build identical rings.
  [[nodiscard]] static std::uint64_t ring_seed(std::uint64_t base, std::size_t ring) {
    return base ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(ring) + 1));
  }

  /// Keyspace sharding: FNV-1a over the key bytes, mod ring count.  The
  /// KV store partitions its keyspace by this map; a request for a key
  /// owned elsewhere is forwarded by the gateway.
  [[nodiscard]] std::size_t shard_of_key(std::string_view key) const {
    std::uint32_t h = 2166136261u;
    for (const char c : key) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 16777619u;
    }
    return h % spec_.rings;
  }

  /// Session sharding: splitmix64 finalizer over the session id.  Session
  /// ids are group-clock-minted (ConsistentIdGenerator) and already encode
  /// their minting ring, so a plain modulus would skew; the finalizer
  /// spreads them evenly.
  [[nodiscard]] std::size_t shard_of_session(std::uint64_t session_id) const {
    std::uint64_t z = session_id + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    return z % spec_.rings;
  }

  /// Owning ring of an encoded KV request (u8 op, str key, ...), or
  /// nullopt if the buffer is not a parseable KV request.  The gateway
  /// router uses this to find remote keys without depending on KvStoreApp.
  [[nodiscard]] std::optional<std::size_t> owner_of_kv_request(
      std::span<const std::uint8_t> request) const {
    try {
      BytesReader r(request);
      const std::uint8_t op = r.u8();
      if (op == 0 || op > 16) return std::nullopt;
      return shard_of_key(r.str());
    } catch (const CodecError&) {
      return std::nullopt;
    }
  }

 private:
  TopologySpec spec_;
};

}  // namespace cts::app
