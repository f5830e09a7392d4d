// Microbenchmarks for the simulator engine hot path (event scheduling,
// cancellation, reschedule, broadcast fan-out), the message codecs, RNG and
// histogram, plus end-to-end figures: events/sec from a live 4-node Totem
// ring and simulated requests per wall-second through the whole testbed.
//
// Unlike the figure-oriented benches, this suite writes a machine-readable
// trajectory: every run appends {"label", "results": [...]} to a JSON file
// (default BENCH_sim_core.json, see --out/--label below), so the recorded
// history of engine rewrites stays in the repository next to the code.
// doc/PERFORMANCE.md describes the methodology and the committed numbers.
//
// Build-and-run via the `benchjson` target:
//   cmake --build build --target benchjson
//
// The measurement loops are kept byte-for-byte comparable with the
// pre-rewrite baseline (std::priority_queue + tombstones + Bytes copies):
// identical depths, identical capture sizes, identical fixed iteration
// counts.  BM_TimerReschedule measures "move a pending timer" — the
// cancel+insert pair before the rewrite, Simulator::reschedule() after —
// because that is the operation Totem's token timers perform per token.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "cts/ccs_message.hpp"
#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "replication/checkpoint_chain.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "totem/totem.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

using namespace cts;

// Steady-state scheduling at depth: a standing heap of `range(0)` pending
// events; every iteration schedules one and fires one.
void BM_EventScheduleFire(benchmark::State& state) {
  sim::Simulator sim;
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < depth; ++i) sim.after(static_cast<Micros>(i + 1), [] {});
  std::uint64_t t = depth;
  for (auto _ : state) {
    sim.after(static_cast<Micros>(++t), [] {});
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventScheduleFire)->Arg(64)->Arg(4096);

// Same steady-state loop with a 40-byte capture — the size class of the
// real hot-path closures (network deliver: this + src + dst + payload
// handle; token forward: this + epoch + token).  std::function heap
// allocates anything past its ~16-byte SBO; InlineFn keeps 48 bytes
// inline.  This is the allocation path the rewrite removes.
void BM_EventScheduleFireCapture40(benchmark::State& state) {
  sim::Simulator sim;
  struct Payload {
    std::uint64_t a, b, c, d;
    std::uint32_t e, f;
  };
  Payload p{1, 2, 3, 4, 5, 6};
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    sim.after(static_cast<Micros>(i + 1), [p, &sink] { sink += p.a; });
  }
  std::uint64_t t = depth;
  for (auto _ : state) {
    sim.after(static_cast<Micros>(++t), [p, &sink] { sink += p.a; });
    benchmark::DoNotOptimize(sim.step());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventScheduleFireCapture40)->Arg(64)->Arg(4096);

// Burst scheduling: 64 events scheduled then drained, one long-lived sim.
void BM_EventScheduleBurst64(benchmark::State& state) {
  sim::Simulator sim;
  for (auto _ : state) {
    for (int i = 1; i <= 64; ++i) sim.after(static_cast<Micros>(i), [] {});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventScheduleBurst64);

// Cancellation churn: schedule 64, cancel all, drain.  Before the rewrite
// each cancel left a tombstone the drain had to pop; now cancel removes
// the entry in place and the drain is a no-op.
void BM_EventCancel64(benchmark::State& state) {
  sim::Simulator sim;
  std::vector<sim::Simulator::EventId> ids;
  ids.reserve(64);
  for (auto _ : state) {
    ids.clear();
    for (int i = 1; i <= 64; ++i) ids.push_back(sim.after(static_cast<Micros>(i), [] {}));
    for (auto id : ids) sim.cancel(id);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventCancel64);

// Move a pending timer, as Totem does on every token receipt.  The
// pre-rewrite implementation of this operation was cancel + insert (and
// every cancel leaked a tombstone); now it is one in-place re-key.
void BM_TimerReschedule(benchmark::State& state) {
  sim::Simulator sim;
  Micros t = 0;
  auto id = sim.after(1'000, [] {});
  for (auto _ : state) {
    if (!sim.reschedule(id, sim.now() + 1'000 + (++t % 7))) {
      id = sim.at(sim.now() + 1'000 + (t % 7), [] {});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count: on the tombstone implementation every cancel
// leaked a queue entry, so the baseline run had to be bounded to keep
// memory flat; the same count is kept so the numbers stay comparable.
BENCHMARK(BM_TimerReschedule)->Iterations(2'000'000);

// Broadcast payload fan-out: one 1400-byte payload to 8 receivers.  The
// payload is allocated once and shared; before the rewrite it was copied
// per receiver and again into each delivery closure.
void BM_NetBroadcast1400B(benchmark::State& state) {
  sim::Simulator sim(11);
  net::Network net(sim, {});
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    net.attach(NodeId{i}, [&delivered](NodeId, const SharedBytes& b) { delivered += b.size(); });
  }
  const Bytes payload(1400, 0x5A);
  for (auto _ : state) {
    net.broadcast(NodeId{0}, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1400 * 8);
}
BENCHMARK(BM_NetBroadcast1400B);

// End-to-end: events/sec executing a live 4-node Totem ring (token
// circulation, timers, deliveries — the full protocol hot path).
void BM_TokenRingEventsPerSec(benchmark::State& state) {
  sim::Simulator sim(7);
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < 4; ++i) tcfg.universe.push_back(NodeId{i});
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->start();
  }
  sim.run_for(100'000);  // ring formation
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += sim.run(1024);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TokenRingEventsPerSec);

// Ordered-multicast message throughput on a loaded 4-node ring: node 0
// keeps its send queue topped up with 64-byte messages, node 3 counts
// deliveries.  items = messages delivered end to end.  This is the figure
// the batch-frame rework targets: per-message framing pays one sealed
// packet per message per token visit; batch framing pays one per visit.
void BM_RingBatchThroughput(benchmark::State& state) {
  sim::Simulator sim(13);
  net::Network net(sim, {});
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < 4; ++i) tcfg.universe.push_back(NodeId{i});
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    nodes.back()->start();
  }
  sim.run_for(100'000);  // ring formation
  std::uint64_t delivered = 0;
  nodes[3]->set_deliver_handler([&delivered](NodeId, const SharedBytes&) { ++delivered; });
  const Bytes payload(64, 0xAB);
  std::uint64_t sent = 0;
  for (auto _ : state) {
    // Keep at least one full token-visit burst queued at the sender.
    while (sent < delivered + 64) {
      nodes[0]->multicast(payload);
      ++sent;
    }
    sim.run(1024);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_RingBatchThroughput);

// The runtime ordering oracle's per-delivery cost on a loaded 4-node GCS
// group: node 0 keeps the send queue topped up with 64-byte ordered
// multicasts, and every node records into the network's Recorder —
// Arg(0) with the oracle disabled (counters and trace only), Arg(1) with
// every delivery verified against the canonical sequence.  items =
// messages delivered at node 3.  The token-ring benches above record too
// but never enable the oracle.
void BM_OracleOverhead(benchmark::State& state) {
  sim::Simulator sim(17);
  net::Network net(sim, {});
  if (state.range(0) == 1) net.recorder().enable_oracle(/*abort_on_violation=*/true);
  totem::TotemConfig tcfg;
  for (std::uint32_t i = 0; i < 4; ++i) tcfg.universe.push_back(NodeId{i});
  constexpr GroupId kGrp{1};
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *nodes.back()));
    nodes.back()->start();
    eps.back()->join_group(kGrp, ReplicaId{i});
  }
  sim.run_for(100'000);  // ring formation + view settle
  std::uint64_t delivered = 0;
  eps[3]->subscribe(kGrp, [&delivered](const gcs::Message&) { ++delivered; });
  const Bytes payload(64, 0xCD);
  std::uint64_t sent = 0;
  for (auto _ : state) {
    while (sent < delivered + 64) {
      gcs::Message m;
      m.hdr.type = gcs::MsgType::kUserRequest;
      m.hdr.src_grp = kGrp;
      m.hdr.dst_grp = kGrp;
      m.hdr.conn = ConnectionId{7};
      m.hdr.tag = ThreadId{0};
      m.hdr.seq = ++sent;
      m.payload = payload;
      eps[0]->send(std::move(m));
    }
    sim.run(1024);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_OracleOverhead)->Arg(0)->Arg(1);

// Chain-verification cost on the recovering replica's hot path: decode and
// verify a chained checkpoint (16 KiB snapshot, 64-link header chain) as
// ReplicaManager::verify_state_payload does per kState payload.
void BM_StateTransferVerify(benchmark::State& state) {
  using replication::CheckpointHeader;
  Bytes snapshot(16 * 1024);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    snapshot[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::vector<CheckpointHeader> chain;
  for (std::uint64_t u = 1; u <= 64; ++u) replication::extend_chain(chain, u * 100, snapshot);
  const Bytes payload = replication::encode_chained_checkpoint(snapshot, chain);
  std::uint64_t ok_count = 0;
  for (auto _ : state) {
    auto d = replication::decode_chained_checkpoint(payload);
    ok_count += replication::verify_chained_checkpoint(*d) ? 1 : 0;
  }
  benchmark::DoNotOptimize(ok_count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_StateTransferVerify);

// A KV checkpoint of `keys` entries laid out as KvStoreApp::checkpoint()
// writes it: 24-byte values, every 8th key leased.  The variant differs in
// 10 keys: one is gone, one has a renewed lease, eight have new values.
Bytes kv_snapshot(std::size_t keys, bool variant) {
  const std::size_t stride = keys / 10;
  BytesWriter w;
  w.u64(keys);  // grant counter
  w.u64(0);     // leases expired
  w.u64(0);     // handoff seq
  w.u32(static_cast<std::uint32_t>(variant ? keys - 1 : keys));
  for (std::size_t i = 0; i < keys; ++i) {
    const bool changed = variant && i % stride == 1 && i / stride < 10;
    const std::size_t which = i / stride;
    if (changed && which == 0) continue;
    char key[16];
    std::snprintf(key, sizeof key, "key%06zu", i);
    w.str(key);
    w.str(std::string(24, static_cast<char>((changed && which >= 2 ? 'A' : 'a') + i % 26)));
    w.u64(1);  // version
    const bool leased = i % 8 == 1;
    const bool renewed = changed && which == 1;
    w.u64(leased ? 7 : 0);
    w.i64(leased ? 1'000'000 + static_cast<Micros>(i) + (renewed ? 500'000 : 0) : 0);
    w.u64(leased ? i + (renewed ? keys : 0) : 0);
  }
  return std::move(w).take();
}

// A passive backup adopting the primary's next checkpoint: the KV app
// restores a snapshot that differs from its state in 10 keys, alternating
// between two such snapshots.  Arg = keys in the store.  items = restores.
void BM_KvCheckpointApply(benchmark::State& state) {
  const auto keys = static_cast<std::size_t>(state.range(0));
  app::TestbedConfig cfg;
  cfg.servers = 1;
  cfg.with_client = false;
  cfg.factory = app::kv_store_factory();
  app::Testbed tb(cfg);
  replication::Replica& kv = tb.server(0).app();
  const Bytes snapshots[2] = {kv_snapshot(keys, false), kv_snapshot(keys, true)};
  kv.restore(snapshots[0]);
  std::size_t next = 1;
  for (auto _ : state) {
    kv.restore(snapshots[next]);
    next ^= 1;
  }
  benchmark::DoNotOptimize(kv.state_digest());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvCheckpointApply)->Arg(64)->Arg(4096);

// Seal + verify of one Totem envelope: the integrity work every packet pays
// once at its sender (the checksum patched over the sealed buffer) and once
// at each receiver (recomputed and compared before any field is parsed).
// Arg = whole packet size: 53 bytes is a token with no rtr entries, 7 KiB a
// full batch frame.  items = packets sealed and verified.
void BM_EnvelopeSealVerify(benchmark::State& state) {
  Bytes packet(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < packet.size(); ++i) {
    packet[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint64_t ok_count = 0;
  for (auto _ : state) {
    store_u32le(packet.data() + 4, totem::envelope_checksum(packet));
    benchmark::ClobberMemory();
    ok_count += load_u32le(packet.data() + 4) == totem::envelope_checksum(packet) ? 1 : 0;
  }
  benchmark::DoNotOptimize(ok_count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EnvelopeSealVerify)->Arg(53)->Arg(7 * 1024);

// --- Island-parallel + sweep benches (PR 8) ------------------------------------
//
// Both read the worker count from CTS_SIM_THREADS (default 1), so the
// pr8-before / pr8-after trajectory pair is the same binary run twice: once
// serial, once with the worker pool on.  The schedule is identical by
// construction (doc/PARALLEL.md); only wall-clock may move, and it only
// moves when the host actually has spare cores.

// The coordinator's barrier counts over the whole run, per epoch: how often
// a thread gave up spinning and slept, and how many islands ran on a thread
// other than their owner.  Host-dependent, so only benches report them.
void barrier_counters(benchmark::State& state, const sim::IslandCoordinator::Stats& st) {
  const double epochs = st.epochs == 0 ? 1.0 : static_cast<double>(st.epochs);
  state.counters["parks_per_epoch"] = static_cast<double>(st.parks) / epochs;
  state.counters["steals_per_epoch"] = static_cast<double>(st.steals) / epochs;
}

// Events/sec across a 4-ring archipelago with a perpetual cross-ring
// stamped-message relay.  items = simulator events executed (all islands).
void BM_ArchipelagoEventsPerSec(benchmark::State& state) {
  constexpr std::size_t kRings = 4;
  app::ArchipelagoConfig cfg;
  cfg.topo.rings = kRings;
  cfg.seed = 99;
  cfg.threads = sim::threads_from_env(1);
  app::Archipelago ar(cfg);
  ar.on_stamped([&ar](std::size_t ring, std::uint32_t replica, Micros, const Bytes& body) {
    if (replica != 0) return;
    ar.stamped_broadcast_at(ar.ring(ring).sim().now() + 20'000, ring, (ring + 1) % kRings,
                            body);
  });
  ar.start(400'000);
  for (std::size_t r = 0; r < kRings; ++r) {
    ar.stamped_broadcast_at(450'000 + 5'000 * r, r, (r + 1) % kRings, Bytes{0x55});
  }
  std::uint64_t ev0 = 0;
  for (std::size_t r = 0; r < kRings; ++r) ev0 += ar.ring(r).sim().events_executed();
  for (auto _ : state) {
    ar.run_for(100'000);
  }
  std::uint64_t ev1 = 0;
  for (std::size_t r = 0; r < kRings; ++r) ev1 += ar.ring(r).sim().events_executed();
  state.SetItemsProcessed(static_cast<std::int64_t>(ev1 - ev0));
  state.counters["workers"] = static_cast<double>(cfg.threads);
  barrier_counters(state, ar.coordinator().stats());
}
// UseRealTime: with a worker pool the calling thread mostly waits at the
// barrier, so the CPU-time default would inflate items/sec by exactly the
// work it handed off.  Wall clock is the number the sweep claims to improve.
BENCHMARK(BM_ArchipelagoEventsPerSec)->Unit(benchmark::kMillisecond)->UseRealTime();

// The scenario-sweep harness on an independent-seed matrix: 8 self-contained
// testbeds, merged deterministically.  items = scenarios completed.
void BM_ScenarioSweep(benchmark::State& state) {
  const unsigned jobs = sim::threads_from_env(1);
  constexpr std::uint64_t kScenarios = 8;
  for (auto _ : state) {
    sim::ScenarioSweep sweep;
    for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
      sweep.add("s" + std::to_string(seed), [seed] {
        app::TestbedConfig cfg;
        cfg.seed = seed;
        app::Testbed tb(cfg);
        tb.start();
        tb.sim().run_for(200'000);
        return std::to_string(tb.sim().events_executed());
      });
    }
    const auto results = sweep.run(jobs);
    benchmark::DoNotOptimize(sim::ScenarioSweep::merged_jsonl(results));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kScenarios));
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_ScenarioSweep)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Sharded-topology bench (PR 9) ----------------------------------------------

// Client ops/sec through the gateway router on a sharded KV deployment:
// 4 rings x 3 replicas, keys drawn so roughly half the requests miss the
// local ring and take the forward/reply link round-trip.  items = client
// requests completed (local hits and cross-ring forwards together).
void BM_ShardedGatewayOpsPerSec(benchmark::State& state) {
  constexpr std::size_t kRings = 4;
  app::ArchipelagoConfig cfg;
  cfg.topo = app::TopologySpec{kRings, 3, true};
  cfg.seed = 42;
  cfg.threads = sim::threads_from_env(1);
  cfg.app = [](const app::ShardMap& map, std::size_t ring) {
    return app::kv_store_factory({.shard_map = &map, .ring = ring});
  };
  app::Archipelago ar(cfg);
  std::uint64_t replies = 0;
  std::vector<std::uint8_t> again(kRings, 1);
  auto loop = [&ar, &replies, &again](std::size_t r) -> sim::Task {
    std::uint64_t i = 0;
    while (again[r] != 0) {
      co_await ar.ring(r).sim().delay(400);
      const std::string key = "k" + std::to_string((r * 31 + i++) % 64);
      (void)co_await ar.router(r).call(app::kv_put(key, "v"));
      ++replies;
    }
  };
  ar.start(400'000);
  for (std::size_t r = 0; r < kRings; ++r) loop(r);
  const std::uint64_t before = replies;
  for (auto _ : state) {
    ar.run_for(100'000);
  }
  for (std::size_t r = 0; r < kRings; ++r) again[r] = 0;
  ar.run_for(2'000'000);  // drain the in-flight requests before teardown
  state.SetItemsProcessed(static_cast<std::int64_t>(replies - before));
  std::uint64_t forwards = 0;
  for (std::size_t r = 0; r < kRings; ++r) {
    forwards += ar.ring(r).recorder().counter("gateway.forwards").value;
  }
  state.counters["forwards"] = static_cast<double>(forwards);
  state.counters["workers"] = static_cast<double>(cfg.threads);
  barrier_counters(state, ar.coordinator().stats());
}
BENCHMARK(BM_ShardedGatewayOpsPerSec)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Observability bench -------------------------------------------------------

// Heap bytes in use (glibc's allocator statistics; 0 elsewhere).
std::size_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

// A stream shaped like a ctsim export: ~40% token passes, ~25% GCS
// deliveries, the rest CCS rounds, skew samples and duplicate
// suppression, on a 3-node ring with small time steps.
std::vector<obs::TraceEvent> ctsim_shaped_trace(std::size_t n) {
  Rng rng(13);
  std::vector<obs::TraceEvent> out(n);
  Micros at = 200'000;
  std::int64_t seq = 0;
  for (obs::TraceEvent& e : out) {
    at += static_cast<Micros>(rng.below(60));
    const auto node = static_cast<std::uint32_t>(rng.below(3));
    const std::uint64_t pick = rng.below(100);
    ++seq;
    if (pick < 40) {
      e = {at, obs::EventKind::kTokenPass, node, ReplicaId::kInvalid, seq / 3, 256, 0};
    } else if (pick < 65) {
      e = {at, obs::EventKind::kGcsDeliver, node, node, 1, seq / 9, 1001};
    } else if (pick < 75) {
      e = {at, obs::EventKind::kGcsSendCancelled, node, node, 5, seq / 9, 0};
    } else if (pick < 85) {
      e = {at, obs::EventKind::kCcsRoundStart, NodeId::kInvalid, node, 1, seq / 20, 0};
    } else if (pick < 95) {
      e = {at, obs::EventKind::kCcsRoundComplete, node, node, seq / 20, 0,
           1'056'326'399'783'721 + at};
    } else {
      e = {at, obs::EventKind::kSkewSample, NodeId::kInvalid, node, rng.range(-300, 300),
           seq / 20, 0};
    }
  }
  return out;
}

// The always-on TraceLog's record() on a ctsim-shaped stream, drained
// every 2^16 events the way perfbench drains between run slices.
// items = events recorded, so ns/op is ns per event.  The
// bytes_per_event counter is the heap one fresh log holds after a full
// batch of the same stream.
void BM_TraceRecord(benchmark::State& state) {
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  const std::vector<obs::TraceEvent> trace = ctsim_shaped_trace(kBatch);
  obs::TraceLog log;
  std::size_t i = 0;
  for (auto _ : state) {
    const obs::TraceEvent& e = trace[i];
    log.record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
    if (++i == kBatch) {
      i = 0;
      log.clear();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const std::size_t heap_before = heap_in_use();
  auto fresh = std::make_unique<obs::TraceLog>();
  for (const obs::TraceEvent& e : trace) fresh->record(e.at, e.kind, e.node, e.replica, e.a, e.b, e.c);
  state.counters["bytes_per_event"] =
      static_cast<double>(heap_in_use() - heap_before) / static_cast<double>(kBatch);
}
BENCHMARK(BM_TraceRecord);

// --- Codecs, RNG, histogram: the per-round CPU cost on top of the network -------

void BM_BytesWriterSmallMessage(benchmark::State& state) {
  for (auto _ : state) {
    BytesWriter w;
    w.u8(3);
    w.u32(42);
    w.u64(123456789);
    w.i64(-5);
    w.str("payload");
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_BytesWriterSmallMessage);

void BM_BytesReaderSmallMessage(benchmark::State& state) {
  BytesWriter w;
  w.u8(3);
  w.u32(42);
  w.u64(123456789);
  w.i64(-5);
  w.str("payload");
  const Bytes data = std::move(w).take();
  for (auto _ : state) {
    BytesReader r(data);
    benchmark::DoNotOptimize(r.u8());
    benchmark::DoNotOptimize(r.u32());
    benchmark::DoNotOptimize(r.u64());
    benchmark::DoNotOptimize(r.i64());
    benchmark::DoNotOptimize(r.str());
  }
}
BENCHMARK(BM_BytesReaderSmallMessage);

void BM_CcsPayloadRoundTrip(benchmark::State& state) {
  ccs::CcsPayload p;
  p.thread = ThreadId{1};
  p.call_type = ccs::ClockCallType::kGettimeofday;
  p.proposed_clock = 1056326400LL * 1000000LL;
  for (auto _ : state) {
    const Bytes b = p.encode();
    benchmark::DoNotOptimize(ccs::CcsPayload::decode(b));
  }
}
BENCHMARK(BM_CcsPayloadRoundTrip);

void BM_GcsHeaderRoundTrip(benchmark::State& state) {
  gcs::Message m;
  m.hdr.type = gcs::MsgType::kCcs;
  m.hdr.src_grp = GroupId{1};
  m.hdr.dst_grp = GroupId{1};
  m.hdr.conn = ConnectionId{1000};
  m.hdr.tag = ThreadId{0};
  m.hdr.seq = 12345;
  m.hdr.sender_replica = ReplicaId{2};
  m.hdr.sender_node = NodeId{3};
  m.payload = Bytes(14, 0xAB);
  for (auto _ : state) {
    const Bytes b = gcs::GcsEndpoint::encode(m);
    benchmark::DoNotOptimize(gcs::GcsEndpoint::decode(b));
  }
}
BENCHMARK(BM_GcsHeaderRoundTrip);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(0.0, 1.0));
}
BENCHMARK(BM_RngGaussian);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h(10, 10'000);
  Rng rng(2);
  for (auto _ : state) h.add(rng.range(0, 9'999));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramAdd);

void BM_FullStackSimulationSpeed(benchmark::State& state) {
  // Wall-clock cost of simulating the whole testbed: one client invocation
  // round-trip through Totem + GCS + replication + CTS per iteration.
  // Reported as simulated-requests per wall-second — the simulator's
  // throughput budget for large experiments.
  app::TestbedConfig cfg;
  cfg.seed = 42;
  app::Testbed tb(cfg);
  tb.start();
  std::uint64_t completed = 0;
  for (auto _ : state) {
    bool done = false;
    tb.client().invoke(app::make_get_time_request(), [&](const Bytes&) { done = true; });
    while (!done) tb.sim().run(256);
    ++completed;
  }
  obs::export_from_env(tb.recorder(), "bench_sim_core.fullstack");
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_FullStackSimulationSpeed)->Unit(benchmark::kMicrosecond);

// --- JSON trajectory writer ----------------------------------------------------

#ifndef CTS_BUILD_TYPE
#define CTS_BUILD_TYPE "unknown"
#endif

struct CapturedRun {
  std::string name;
  std::int64_t iterations = 0;
  double real_ns = 0;
  double cpu_ns = 0;
  double items_per_second = 0;
  double bytes_per_second = 0;
};

class CaptureReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      CapturedRun c;
      c.name = r.benchmark_name();
      c.iterations = static_cast<std::int64_t>(r.iterations);
      c.real_ns = r.GetAdjustedRealTime();
      c.cpu_ns = r.GetAdjustedCPUTime();
      if (auto it = r.counters.find("items_per_second"); it != r.counters.end()) {
        c.items_per_second = it->second;
      }
      if (auto it = r.counters.find("bytes_per_second"); it != r.counters.end()) {
        c.bytes_per_second = it->second;
      }
      runs.push_back(std::move(c));
    }
  }
  std::vector<CapturedRun> runs;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Host fingerprint: absolute timings only compare between entries whose
// hosts match, so check_bench_schema.py rejects a before/after pair
// recorded on two different hosts.
std::string render_host() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << json_escape(compiler()) << "\", \"build_type\": \"" << json_escape(CTS_BUILD_TYPE)
      << "\", \"cpu\": \"" << json_escape(cpu_model()) << "\"}";
  return out.str();
}

std::string render_entry(const std::string& label, const std::vector<CapturedRun>& runs) {
  std::ostringstream out;
  out << "    {\n      \"label\": \"" << json_escape(label) << "\",\n      \"host\": "
      << render_host() << ",\n      \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CapturedRun& r = runs[i];
    out << "        {\"name\": \"" << json_escape(r.name) << "\", \"iterations\": "
        << r.iterations << ", \"real_ns_per_op\": " << r.real_ns
        << ", \"cpu_ns_per_op\": " << r.cpu_ns;
    if (r.items_per_second > 0) out << ", \"items_per_second\": " << r.items_per_second;
    if (r.bytes_per_second > 0) out << ", \"bytes_per_second\": " << r.bytes_per_second;
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "      ]\n    }";
  return out.str();
}

// Append one run entry to the trajectory file, creating it if needed.  The
// file is a fixed shape this writer controls end to end, so "parsing" is a
// search for the closing "  ]\n}" of the runs array.
bool write_trajectory(const std::string& path, const std::string& entry) {
  static const std::string kTail = "\n  ]\n}\n";
  std::string existing;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto tail_at = existing.rfind(kTail);
  if (!existing.empty() && tail_at != std::string::npos &&
      tail_at == existing.size() - kTail.size()) {
    out << existing.substr(0, tail_at) << ",\n" << entry << kTail;
  } else {
    out << "{\n  \"benchmark\": \"sim_core\",\n  \"schema\": 1,\n  \"runs\": [\n"
        << entry << kTail;
  }
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "local";
  std::string out_path;  // empty: print to stdout only, write nothing
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());

  CaptureReporter capture;
  benchmark::ConsoleReporter console;
  // Console output for the human, captured runs for the JSON trajectory.
  struct Tee : benchmark::BenchmarkReporter {
    CaptureReporter* a;
    benchmark::ConsoleReporter* b;
    bool ReportContext(const Context& ctx) override {
      a->ReportContext(ctx);
      return b->ReportContext(ctx);
    }
    void ReportRuns(const std::vector<Run>& report) override {
      a->ReportRuns(report);
      b->ReportRuns(report);
    }
    void Finalize() override { b->Finalize(); }
  } tee;
  tee.a = &capture;
  tee.b = &console;
  benchmark::RunSpecifiedBenchmarks(&tee);
  benchmark::Shutdown();

  if (!out_path.empty()) {
    if (!write_trajectory(out_path, render_entry(label, capture.runs))) {
      std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu results (label \"%s\") to %s\n", capture.runs.size(),
                 label.c_str(), out_path.c_str());
  }
  return 0;
}
