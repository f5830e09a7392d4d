#include "net/network.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace cts::net {

void Network::attach(NodeId node, Handler handler) {
  NodeSlot& s = nodes_.ensure(node.value);
  s.handler = std::move(handler);
  s.attached = true;
  s.down = false;
}

void Network::detach(NodeId node) {
  // Matches the old five-map behavior: handler/scope/down/component state is
  // dropped, but the NIC's tx_free_at survives (a re-attached host still
  // queues behind its own historical transmissions).
  if (NodeSlot* s = nodes_.find(node.value)) {
    s->handler = nullptr;
    s->scope = nullptr;
    s->attached = false;
    s->down = false;
    if (s->component != -1) {
      s->component = -1;
      --components_assigned_;
    }
  }
}

void Network::bind_scope(NodeId node, sim::TaskScope* scope) {
  nodes_.ensure(node.value).scope = scope;
}

void Network::set_down(NodeId node, bool down) {
  // Only attached hosts track liveness, as with the old down_ map whose
  // entries existed exactly for attached nodes.
  if (NodeSlot* s = nodes_.find(node.value); s != nullptr && s->attached) s->down = down;
}

bool Network::is_down(NodeId node) const {
  const NodeSlot* s = nodes_.find(node.value);
  return s == nullptr || !s->attached || s->down;
}

bool Network::reachable(NodeId src, NodeId dst) const {
  if (is_down(dst)) return false;
  if (components_assigned_ == 0) return true;
  return component_of(src) == component_of(dst);
}

int Network::component_of(NodeId node) const {
  if (const NodeSlot* s = nodes_.find(node.value)) return s->component;
  if (auto it = sparse_components_.find(node.value); it != sparse_components_.end()) {
    return it->second;
  }
  return -1;
}

Micros Network::tx_departure(NodeId src, std::size_t payload_size) {
  // The sending NIC serializes packets: this packet leaves the host once
  // the previous one has fully left, plus its own wire time.
  const auto serialization = static_cast<Micros>(
      std::llround(static_cast<double>(payload_size) / cfg_.bytes_per_us));
  Micros& free_at = nodes_.ensure(src.value).tx_free_at;
  const Micros depart = std::max(sim_.now(), free_at) + serialization;
  free_at = depart;
  return depart;
}

Micros Network::draw_hop_latency() {
  double jitter = rng_.gaussian(0.0, cfg_.jitter_stddev_us);
  if (jitter < 0) jitter = -jitter;  // jitter only ever adds delay
  return cfg_.base_latency_us + static_cast<Micros>(std::llround(jitter));
}

void Network::deliver(NodeId src, NodeId dst, SharedBytes payload, Micros depart) {
  // In-flight bit corruption: one random bit flips.  The RNG is only
  // touched when the knob is on, so default runs draw the same sequence
  // as before the knob existed.  Corruption is copy-on-write: the shared
  // buffer stays pristine for the other receivers of a broadcast, and the
  // RNG draw order (chance, byte, bit) matches the in-place implementation
  // this replaces.
  if (cfg_.corrupt_probability > 0 && !payload.empty() && rng_.chance(cfg_.corrupt_probability)) {
    const auto byte = static_cast<std::size_t>(rng_.below(payload.size()));
    Bytes mutated = payload.to_bytes();
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
    payload = SharedBytes(std::move(mutated));
    ++stats_.packets_corrupted;
    ++c_corrupted_;
    rec_.event(obs::EventKind::kNetCorrupt, dst, ReplicaId{}, src.value,
               static_cast<std::int64_t>(payload.size()));
  }
  const Micros arrive = depart + draw_hop_latency();
  auto on_arrive = [this, src, dst, p = std::move(payload)] {
    // Re-check liveness at delivery time: the destination may have crashed
    // while the packet was in flight without a scope to cancel the packet.
    NodeSlot* s = nodes_.find(dst.value);
    if (s == nullptr || !s->attached || s->down) {
      drop(src, dst, p.size());
      return;
    }
    ++stats_.packets_delivered;
    ++c_delivered_;
    s->handler(src, p);
  };
  // The in-flight packet belongs to the destination's lifecycle scope: a
  // fail-stop shutdown cancels it mid-flight (the wire forgets packets to a
  // dead NIC) instead of delivering-then-dropping after the crash.
  NodeSlot* sd = nodes_.find(dst.value);
  if (sd != nullptr && sd->scope != nullptr) {
    sd->scope->after(arrive - sim_.now(), std::move(on_arrive));
  } else {
    sim_.after(arrive - sim_.now(), std::move(on_arrive));
  }
}

void Network::drop(NodeId src, NodeId dst, std::size_t payload_size) {
  ++stats_.packets_dropped;
  ++c_dropped_;
  rec_.event(obs::EventKind::kNetDrop, dst, ReplicaId{}, src.value,
             static_cast<std::int64_t>(payload_size));
}

void Network::send(NodeId src, NodeId dst, SharedBytes payload) {
  ++stats_.packets_sent;
  stats_.bytes_sent += payload.size();
  ++c_sent_;
  const Micros depart = tx_departure(src, payload.size());
  if (!reachable(src, dst) || rng_.chance(cfg_.loss_probability)) {
    drop(src, dst, payload.size());
    return;
  }
  deliver(src, dst, std::move(payload), depart);
}

void Network::broadcast(NodeId src, SharedBytes payload) {
  ++stats_.packets_sent;
  stats_.bytes_sent += payload.size();
  ++c_sent_;
  // One transmission serves every receiver (Ethernet broadcast); loss and
  // jitter are drawn per receiver (independent NIC/interrupt behavior).
  // Ascending node-id walk — the same receiver order (and therefore the
  // same per-receiver RNG draw order) as the ordered map this replaces.
  const Micros depart = tx_departure(src, payload.size());
  nodes_.for_each([&](std::uint32_t id, NodeSlot& slot) {
    if (!slot.attached || id == src.value) return;
    const NodeId node{id};
    if (!reachable(src, node) || rng_.chance(cfg_.loss_probability)) {
      drop(src, node, payload.size());
      return;
    }
    deliver(src, node, payload, depart);
  });
}

void Network::partition(const std::vector<std::vector<NodeId>>& components) {
  nodes_.for_each([](std::uint32_t, NodeSlot& s) { s.component = -1; });
  sparse_components_.clear();
  components_assigned_ = 0;
  int idx = 0;
  for (const auto& comp : components) {
    for (NodeId n : comp) {
      if (n.value > decltype(nodes_)::kMaxDenseId) {
        // Sentinel/invalid ids: the old std::map stored them as inert
        // entries, so they still count as "assigned" (partitioned() is
        // true) without ever growing the dense slot array.
        auto [it, fresh] = sparse_components_.try_emplace(n.value, idx);
        if (fresh) ++components_assigned_;
        it->second = idx;
        continue;
      }
      NodeSlot& s = nodes_.ensure(n.value);
      if (s.component == -1) ++components_assigned_;
      s.component = idx;
    }
    ++idx;
  }
  CTS_INFO() << "network partitioned into " << components.size() << "+ components";
  // By name, at the first partition: the counter exists only in runs that
  // inject one.
  ++rec_.counter("net.partitions");
  rec_.event(obs::EventKind::kNetPartition, NodeId{}, ReplicaId{},
             components.empty() ? 0 : static_cast<std::int64_t>(components[0].size()),
             components.size() > 1 ? static_cast<std::int64_t>(components[1].size()) : 0);
}

void Network::heal() {
  nodes_.for_each([](std::uint32_t, NodeSlot& s) { s.component = -1; });
  sparse_components_.clear();
  components_assigned_ = 0;
  CTS_INFO() << "network partition healed";
  ++rec_.counter("net.heals");
  rec_.event(obs::EventKind::kNetHeal);
}

}  // namespace cts::net
