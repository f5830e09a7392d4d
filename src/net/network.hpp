// Simulated local-area network.
//
// Models the paper's testbed network: a single 100 Mbit/s Ethernet segment
// with no competing traffic.  Packets experience a per-hop latency (base +
// jitter + serialization time proportional to size), may be dropped with a
// configurable probability, and are not delivered across a partition or to
// a crashed host.  Totem's reliability machinery (retransmission requests
// carried on the token) recovers dropped packets, exactly as on real
// hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::net {

/// Tuning knobs for the LAN model.  Defaults are calibrated so that the
/// Totem token-passing time peaks near 51 us, matching the measurement the
/// paper cites from [20] for its 4-node 100 Mb/s testbed.
struct NetworkConfig {
  /// Fixed one-hop propagation + interrupt + kernel cost, microseconds.
  /// (Serialization time, bytes/bytes_per_us, is charged separately and
  /// serializes per sending NIC.)
  Micros base_latency_us = 40;
  /// Std-dev of gaussian jitter added to each packet, microseconds.
  double jitter_stddev_us = 4.0;
  /// Wire rate in bytes per microsecond (100 Mb/s = 12.5 B/us).
  double bytes_per_us = 12.5;
  /// Independent per-packet drop probability (0 on the paper's quiet LAN;
  /// raised by the fault-injection tests).
  double loss_probability = 0.0;
  /// Independent per-packet in-flight corruption probability: one random
  /// bit of the payload is flipped.  Totem's sealed envelope (word_hash32,
  /// which detects every single-bit flip by construction) discards such
  /// packets, so corruption manifests upstream as loss.
  /// When 0 (the default) no RNG draw is made, so existing calibrated runs
  /// see an unchanged random sequence.
  double corrupt_probability = 0.0;
};

/// Counters for wire-level traffic, per node and total.
struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t bytes_sent = 0;
};

/// The broadcast domain connecting all simulated hosts.
class Network {
 public:
  /// Receive callback: (source node, payload bytes).  The payload is a
  /// refcounted view shared with every other receiver of the same
  /// broadcast; handlers that keep it keep only the refcount.
  // detlint:allow(heap-callback): bound once at attach(), never constructed
  // on the per-packet path — only invoked there.
  using Handler = std::function<void(NodeId, const SharedBytes&)>;

  Network(sim::Simulator& sim, NetworkConfig cfg)
      : sim_(sim), cfg_(cfg), rng_(sim.rng().fork()), rec_(sim) {}

  /// Register a host's packet-receive handler.  A host must be attached
  /// before anyone can send to it.
  void attach(NodeId node, Handler handler);

  /// Detach a host entirely (used when simulating permanent removal).
  void detach(NodeId node);

  /// Bind (or unbind, with nullptr) a host's lifecycle scope.  In-flight
  /// packets to the host are scheduled through its scope, so a fail-stop
  /// shutdown cancels them alongside the host's own timers.  Bound by the
  /// host's TotemNode; unbound when it is destroyed.
  void bind_scope(NodeId node, sim::TaskScope* scope);

  /// Mark a host down (crashed) or back up.  A down host neither receives
  /// packets nor should send them (its protocol stack is stopped).
  void set_down(NodeId node, bool down);
  [[nodiscard]] bool is_down(NodeId node) const;

  /// Unicast `payload` from `src` to `dst`.  Takes the payload by value:
  /// a Bytes rvalue converts with a single move (no copy), and the
  /// in-flight packet holds a refcount, not a duplicate buffer.
  void send(NodeId src, NodeId dst, SharedBytes payload);

  /// Broadcast `payload` from `src` to every attached host except `src`.
  /// The payload buffer is allocated once and shared by every receiver's
  /// in-flight packet.  (Totem multicasts regular messages; the sender
  /// delivers locally without the network.)
  void broadcast(NodeId src, SharedBytes payload);

  /// Split the network into components; packets cross components only after
  /// heal().  Each node appears in at most one component; unlisted nodes
  /// form an implicit final component.
  void partition(const std::vector<std::vector<NodeId>>& components);
  void heal();
  [[nodiscard]] bool partitioned() const { return components_assigned_ > 0; }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] NetworkConfig& config() { return cfg_; }

  /// The island's recorder: every layer built on this network (Totem, GCS,
  /// CTS, replication) counts and traces into it.  Purely passive:
  /// recording never schedules events or draws randomness.
  obs::Recorder& recorder() { return rec_; }

 private:
  /// Everything the network knows about one host, in one cache-friendly
  /// slot indexed directly by node id.  This replaces five parallel
  /// `std::map<NodeId, ...>` instances (handlers/scopes/down/tx_free_at/
  /// component_of), collapsing the five per-packet map lookups into array
  /// loads.  Iteration over attached slots is ascending-id — identical to
  /// the old ordered-map walk, so broadcast's per-receiver RNG draw order
  /// (part of the deterministic schedule) is unchanged.
  struct NodeSlot {
    Handler handler;
    sim::TaskScope* scope = nullptr;
    // Per-node NIC: a host transmits one packet at a time at the wire
    // rate, so a burst (e.g. checkpoint fragments) queues behind itself.
    // Survives detach(), like the old standalone tx_free_at_ map.
    Micros tx_free_at = 0;
    int component = -1;  // -1 = not in any partition component
    bool attached = false;
    bool down = false;
  };

  [[nodiscard]] bool reachable(NodeId src, NodeId dst) const;
  [[nodiscard]] int component_of(NodeId node) const;
  [[nodiscard]] Micros tx_departure(NodeId src, std::size_t payload_size);
  [[nodiscard]] Micros draw_hop_latency();
  void deliver(NodeId src, NodeId dst, SharedBytes payload, Micros depart);
  void drop(NodeId src, NodeId dst, std::size_t payload_size);

  sim::Simulator& sim_;
  NetworkConfig cfg_;
  Rng rng_;
  // Deterministic ordered storage, deliberately: broadcast() walks the
  // slots drawing per-receiver loss/jitter randomness, so iteration order
  // is part of the deterministic schedule.  A hash map here would tie the
  // RNG sequence to hash-table layout, which varies across standard-library
  // versions; DenseNodeIndex iterates in ascending node-id order.
  DenseNodeIndex<NodeSlot> nodes_;
  int components_assigned_ = 0;  // #ids (dense or sparse) with component != -1
  // Component assignments for ids the dense index cannot hold (callers can
  // legitimately pass sentinel/unattached ids — e.g. a default NodeId — to
  // partition(); the old std::map stored them inertly, and so do we).
  FlatMap<std::uint32_t, int> sparse_components_;
  NetworkStats stats_;
  obs::Recorder rec_;
  obs::Counter& c_sent_ = rec_.counter("net.packets_sent");
  obs::Counter& c_delivered_ = rec_.counter("net.packets_delivered");
  obs::Counter& c_dropped_ = rec_.counter("net.packets_dropped");
  obs::Counter& c_corrupted_ = rec_.counter("net.packets_corrupted");
};

}  // namespace cts::net
