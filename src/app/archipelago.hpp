// Archipelago: N Totem rings, each a parallel simulation island, joined by
// causally-stamped inter-ring messaging — ROADMAP items 1 and 4 meeting in
// one rig.
//
// Each ring is a full Testbed (its own Simulator, LAN, Totem ring, server
// group, drifting clocks, Recorder/oracle) registered as an island with an
// IslandCoordinator; the only coupling between rings is the InterIslandLink,
// whose latency floor is exactly the coordinator's conservative window — so
// the rings execute whole barrier windows in parallel and the merged
// schedule is byte-identical to the serial one (doc/PARALLEL.md).
//
// Inter-ring traffic follows the paper's Section 5 sketch end to end:
//
//   sender ring i:  every live replica performs the same CausalMessenger
//                   stamp_and_send (one CCS round reads the group clock,
//                   the reading is prepended to the payload); GCS duplicate
//                   suppression collapses the copies to one wire message;
//   gateway:        node 0 of ring i subscribes to every remote ring's
//                   cross-ring group, so the single delivered copy is
//                   encoded and shipped over the InterIslandLink;
//   receiver ring j: the gateway re-originates the message on ring j's
//                   Totem ring (agreed order among ring j's replicas);
//                   every replica's CausalMessenger raises the causal floor
//                   to the carried timestamp before the app callback — all
//                   of ring j's subsequent clock readings exceed it.
//
// Naming (groups, stamp streams, connection ids, per-ring seeds) comes from
// the ShardMap (app/topology.hpp) — the topology layer this rig consumes
// instead of hand-building per-ring constants.  The cross-ring group is
// deliberately disjoint from the server group: the ReplicaManagers
// subscribe to the server group and treat every kUserRequest there as an
// RMI invocation, so stamped messages addressed to the server group would
// be "executed" as garbage requests and answered with spurious replies
// routed back across the link.  Link frames are typed (LinkFrameKind): the
// stamped cross-group path shares the wire with the gateway router's
// forwarded requests and replies (app/gateway.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "app/gateway.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "cts/multigroup.hpp"
#include "net/island_link.hpp"
#include "sim/parallel.hpp"

namespace cts::app {

struct ArchipelagoConfig {
  /// Deployment shape: ring count, replicas per ring, client nodes.  When
  /// with_client is false, server 0's node doubles as the ring's gateway
  /// (and there is no RMI client, so no gateway router either).
  TopologySpec topo;

  /// Every ring's Testbed starts as a copy of this template (style, LAN,
  /// Totem, clocks, CTS options, checkpoint cadence); the Archipelago then
  /// sets each copy's servers, client, seed, groups, factory and oracle from
  /// topo, seed, app and oracle, so those ring fields must keep their
  /// defaults (the constructor throws otherwise).
  TestbedConfig ring;

  std::uint64_t seed = 1;

  /// Per-ring application factory (nullptr ring entries fall back to the
  /// paper's time server).  Receives the deployment's ShardMap so sharded
  /// apps (KvStoreApp, SessionManagerApp) can wire their handoff streams.
  std::function<replication::ReplicaFactory(const ShardMap&, std::size_t ring)> app;

  /// One-way inter-ring latency; doubles as the coordinator's conservative
  /// window floor, so larger values mean fewer, fatter parallel epochs.
  Micros link_latency_us = 500;

  /// Island worker threads (1 = serial; same schedule either way).
  unsigned threads = 1;

  bool oracle = true;
};

class Archipelago {
 public:
  static constexpr ConnectionId kInterRingConn = ShardMap::kPingConn;

  /// Called (on the receiving ring's worker) for every stamped inter-ring
  /// delivery, once per live replica: (ring, replica, timestamp, body).
  using StampedFn =
      std::function<void(std::size_t ring, std::uint32_t replica, Micros ts, const Bytes& body)>;

  explicit Archipelago(ArchipelagoConfig cfg)
      : cfg_(std::move(cfg)),
        map_(cfg_.topo),
        coord_(cfg_.link_latency_us),
        link_(coord_, net::IslandLinkConfig{cfg_.link_latency_us}) {
    const TestbedConfig fresh;
    const TestbedConfig& t = cfg_.ring;
    if (t.servers != fresh.servers || t.with_client != fresh.with_client || t.seed != fresh.seed ||
        t.oracle != fresh.oracle || t.server_group != fresh.server_group ||
        t.client_group != fresh.client_group || t.factory) {
      throw std::invalid_argument(
          "Archipelago: ring servers/client/seed/oracle/groups/factory are set per ring "
          "from topo, seed, oracle and app");
    }
    const std::size_t rings = map_.rings();
    const std::size_t servers = map_.servers();
    deliveries_.assign(rings, 0);
    xseq_.assign(rings * rings, 0);
    messengers_.resize(rings);
    routers_.resize(rings);

    for (std::size_t r = 0; r < rings; ++r) {
      TestbedConfig tc = cfg_.ring;
      tc.servers = servers;
      tc.with_client = cfg_.topo.with_client;
      tc.seed = ShardMap::ring_seed(cfg_.seed, r);
      tc.oracle = cfg_.oracle;
      tc.server_group = map_.server_group(r);
      tc.client_group = map_.client_group(r);
      tc.factory = cfg_.app ? cfg_.app(map_, r) : nullptr;
      rings_.push_back(std::make_unique<Testbed>(std::move(tc)));
      islands_.push_back(coord_.add_island(rings_.back()->sim()));
      // Resolve the ring's xring.* counter handles once: each ring's
      // Recorder outlives every restart, and the link ingress/egress paths
      // run per frame.
      obs::Recorder& rr = rings_.back()->recorder();
      xring_.push_back({&rr.counter("xring.egress"), &rr.counter("xring.ingress"),
                        &rr.counter("xring.frames_rejected"),
                        &rr.counter("xring.stamped_delivered")});
    }
    coord_.set_threads(cfg_.threads);

    for (std::size_t r = 0; r < rings; ++r) {
      link_.attach(islands_[r], rings_[r]->sim(),
                   [this, r](sim::IslandId src, Bytes frame) {
                     ingress(r, src, std::move(frame));
                   });
      wire_gateway(r);
      if (cfg_.topo.with_client) {
        routers_[r] = std::make_unique<GatewayRouter>(
            map_, r, rings_[r]->client(), rings_[r]->scope_of(0), rings_[r]->recorder(),
            [this, r](std::size_t dst, Bytes frame) {
              link_.send(islands_[r], islands_[dst], std::move(frame));
            });
      }
      messengers_[r].resize(servers);
      for (std::uint32_t s = 0; s < servers; ++s) rebuild_messenger(r, s);
    }
  }

  /// Install the inter-ring delivery handler.  Setup-phase only (before
  /// start()): the handler is invoked from ring workers and must be safe
  /// for concurrent calls from different rings (ring-local or per-ring
  /// state only).
  void on_stamped(StampedFn fn) {
    assert(!started_);
    handler_ = std::move(fn);
  }

  /// Boot every ring and run `settle_us` of virtual time under the
  /// coordinator so rings form and group views install.
  void start(Micros settle_us = 400'000) {
    started_ = true;
    for (auto& tb : rings_) tb->start(0);
    coord_.run_for(settle_us);
  }

  void run_for(Micros d) { coord_.run_for(d); }
  void run_until(Micros t) { coord_.run_until(t); }
  [[nodiscard]] Micros now() const { return coord_.now(); }

  /// Schedule "every live replica of `src` performs the same stamped send
  /// to ring `dst`" at source-ring time `at`.  The per-(src,dst) sequence
  /// number is assigned when the broadcast executes, in source-ring event
  /// order, so it is identical for every worker count.  Call during setup
  /// or from ring `src`'s own execution context (never from another ring's
  /// callback — scheduling onto a foreign island's heap mid-run is a race).
  void stamped_broadcast_at(Micros at, std::size_t src, std::size_t dst, Bytes body) {
    assert(src < map_.rings() && dst < map_.rings() && src != dst);
    rings_[src]->sim().at(at, [this, src, dst, body = std::move(body)]() mutable {
      broadcast_now(src, dst, std::move(body));
    });
  }

  // --- Fault injection (wrappers that keep the messenger layer wired) ---

  void crash_server(std::size_t r, std::uint32_t s) {
    rings_[r]->crash_server(s);
  }

  void restart_server(std::size_t r, std::uint32_t s) {
    rings_[r]->restart_server(s);
    // The restart rebuilt the node's GCS endpoint and replica manager; the
    // messenger holds references into both and must be rebuilt with them.
    rebuild_messenger(r, s);
    // Without a client, server 0's node is also the ring's gateway — its
    // fresh endpoint needs the remote-group subscriptions again.
    if (rings_[r]->server_node(s) == 0) wire_gateway(r);
  }

  // --- Accessors ---

  [[nodiscard]] std::size_t ring_count() const { return rings_.size(); }
  Testbed& ring(std::size_t r) { return *rings_[r]; }
  sim::IslandCoordinator& coordinator() { return coord_; }
  net::InterIslandLink& link() { return link_; }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }

  /// Ring r's gateway router (with_client topologies only).
  GatewayRouter& router(std::size_t r) { return *routers_[r]; }

  /// Ring r's cross-ring stamped-message group.  Disjoint from its server
  /// group: the ReplicaManagers subscribe to the server group and would
  /// execute a stamped message delivered there as a garbage RMI request
  /// (and route the spurious reply back across the link).
  [[nodiscard]] GroupId xgroup_of(std::size_t r) const { return map_.cross_group(r); }

  /// Stamped inter-ring deliveries observed by ring r's replicas (one count
  /// per replica per message).  Read between runs.
  [[nodiscard]] std::uint64_t stamped_deliveries(std::size_t r) const {
    return deliveries_[r];
  }

  /// Per-island recorders in island order, for the deterministic obs merge.
  [[nodiscard]] std::vector<obs::Recorder*> recorders() {
    std::vector<obs::Recorder*> out;
    out.reserve(rings_.size());
    for (auto& tb : rings_) out.push_back(&tb->recorder());
    return out;
  }

 private:
  /// Subscribe ring r's gateway endpoint (node 0) to every remote ring's
  /// cross-ring group: a locally delivered message addressed to ring j
  /// leaves over the link exactly once (GCS dedup upstream guarantees
  /// single delivery per endpoint).
  void wire_gateway(std::size_t r) {
    for (std::size_t j = 0; j < map_.rings(); ++j) {
      if (j == r) continue;
      rings_[r]->gcs_of(0).subscribe(xgroup_of(j), [this, r, j](const gcs::Message& m) {
        ++*xring_[r].egress;
        link_.send(islands_[r], islands_[j], frame_xgroup(gcs::GcsEndpoint::encode(m)));
      });
    }
  }

  /// Link delivery on ring r's worker.  Dispatch on the frame's kind byte:
  /// stamped cross-group messages are re-originated on ring r's Totem ring
  /// (agreed order among its replicas); gateway forwards and replies go to
  /// ring r's router.  Malformed frames are counted and dropped, like any
  /// malformed packet.
  void ingress(std::size_t r, sim::IslandId /*src*/, Bytes frame) {
    ++*xring_[r].ingress;
    try {
      BytesReader rd(frame);
      switch (static_cast<LinkFrameKind>(rd.u8())) {
        case LinkFrameKind::kXGroup: {
          const std::span<const std::uint8_t> rest{frame.data() + 1, frame.size() - 1};
          rings_[r]->gcs_of(0).send(gcs::GcsEndpoint::decode(rest));
          return;
        }
        case LinkFrameKind::kFwdRequest: {
          const std::uint32_t origin = rd.u32();
          const std::uint64_t id = rd.u64();
          if (routers_[r]) routers_[r]->on_fwd_request(origin, id, rd.bytes());
          return;
        }
        case LinkFrameKind::kFwdReply: {
          const std::uint64_t id = rd.u64();
          if (routers_[r]) routers_[r]->on_fwd_reply(id, rd.bytes());
          return;
        }
      }
      throw CodecError("unknown link frame kind");
    } catch (const CodecError&) {
      ++*xring_[r].frames_rejected;
    }
  }

  void broadcast_now(std::size_t src, std::size_t dst, Bytes body) {
    const MsgSeqNum seq = ++xseq_[src * map_.rings() + dst];
    Testbed& tb = *rings_[src];
    for (std::uint32_t s = 0; s < map_.servers(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive()) continue;  // crashed replica
      messengers_[src][s]->stamp_and_send(xgroup_of(dst), kInterRingConn, seq, body);
    }
  }

  void rebuild_messenger(std::size_t r, std::uint32_t s) {
    Testbed& tb = *rings_[r];
    const auto node = tb.server_node(s);
    messengers_[r][s] = std::make_unique<ccs::CausalMessenger>(
        tb.gcs_of(node), tb.server(s).time_service(), xgroup_of(r), map_.ping_stream(r));
    messengers_[r][s]->subscribe(
        kInterRingConn, [this, r, s](const gcs::Message&, Micros ts, const Bytes& body) {
          ++deliveries_[r];
          ++*xring_[r].stamped_delivered;
          if (handler_) handler_(r, s, ts, body);
        });
  }

  ArchipelagoConfig cfg_;
  ShardMap map_;
  sim::IslandCoordinator coord_;
  net::InterIslandLink link_;
  /// Per-ring xring.* counter handles, resolved once at construction
  /// (stable for the ring Recorder's lifetime — see MetricsRegistry).
  struct XRingCounters {
    obs::Counter* egress;
    obs::Counter* ingress;
    obs::Counter* frames_rejected;
    obs::Counter* stamped_delivered;
  };

  std::vector<std::unique_ptr<Testbed>> rings_;
  std::vector<XRingCounters> xring_;
  std::vector<sim::IslandId> islands_;
  std::vector<std::unique_ptr<GatewayRouter>> routers_;
  std::vector<std::vector<std::unique_ptr<ccs::CausalMessenger>>> messengers_;
  std::vector<std::uint64_t> deliveries_;   // per-ring, each written by its ring's worker
  std::vector<MsgSeqNum> xseq_;             // per (src,dst), written by src's worker
  StampedFn handler_;
  bool started_ = false;
};

}  // namespace cts::app
