// ctsim — scenario driver for the consistent time service stack.
//
// Runs the full simulated testbed (client + replicated time server) under a
// user-specified topology, replication style, workload, network conditions,
// and fault schedule, then reports latency, CCS traffic, drift, and
// consistency checks.  Everything the library can do, from one command
// line — the fastest way for a new user to poke at the system.
//
// Examples:
//   ctsim --servers 5 --invocations 2000
//   ctsim --style passive --checkpoint-every 10 --crash 0@200ms --invocations 500
//   ctsim --servers 3 --loss 0.02 --crash 2@100ms --recover 2@400ms --seed 9
//   ctsim --style semiactive --drift mean --mean-delay 45 --invocations 10000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "common/histogram.hpp"
#include "obs/merge.hpp"
#include "obs/recorder.hpp"
#include "sim/parallel.hpp"

using namespace cts;
using namespace cts::app;

namespace {

struct FaultEvent {
  enum class Kind { kCrash, kRecover } kind;
  std::uint32_t replica;
  Micros at_us;
};

struct Options {
  std::size_t servers = 3;
  replication::ReplicationStyle style = replication::ReplicationStyle::kActive;
  int invocations = 1000;
  Micros think_us = 500;
  std::uint64_t seed = 1;
  double loss = 0.0;
  Micros max_clock_offset_us = 500'000;
  double max_drift_ppm = 50.0;
  std::uint32_t checkpoint_every = 5;
  ccs::DriftCompensation drift = ccs::DriftCompensation::kNone;
  Micros mean_delay_us = 40;
  double reference_gain = 0.1;
  std::vector<FaultEvent> faults;
  bool verbose = false;
  std::uint32_t shards = 1;
  /// Multi-ring topology: rings > 1 runs an Archipelago (one Totem ring per
  /// island, causally-stamped inter-ring traffic) instead of one Testbed.
  std::size_t rings = 1;
  /// Island worker threads (doc/PARALLEL.md).  Defaults to CTS_SIM_THREADS
  /// or 1; 1 is the exact legacy serial path, and any value produces the
  /// same schedule byte for byte.
  unsigned threads = sim::threads_from_env(1);
  bool durable = false;  // stable storage + cold-startable
  bool kv = false;       // run the KV workload instead of the time server
  /// With rings > 1 and --kv: fraction of each client's requests aimed at
  /// keys another ring owns, to exercise the gateway router's forwarding.
  double remote_fraction = 0.5;
  std::string metrics_json;  // write obs metrics JSON here ("" = off)
  std::string trace_jsonl;   // write obs trace JSONL here ("" = off)
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --servers N             server replicas (default 3)\n"
      "  --style S               active | semiactive | passive (default active)\n"
      "  --invocations N         client invocations (default 1000)\n"
      "  --think US              client think time between invocations, us (default 500)\n"
      "  --seed N                experiment seed (default 1)\n"
      "  --loss P                packet loss probability (default 0)\n"
      "  --clock-offset US       max initial hw clock offset, us (default 500000)\n"
      "  --clock-drift PPM       max hw clock drift, ppm (default 50)\n"
      "  --checkpoint-every N    passive checkpoint cadence, requests (default 5)\n"
      "  --drift D               none | mean | reference (drift compensation)\n"
      "  --mean-delay US         mean-delay compensation constant (default 40)\n"
      "  --reference-gain G      reference-bias gain (default 0.1)\n"
      "  --crash R@T             crash replica R at time T (e.g. 2@100ms, 0@1s)\n"
      "  --recover R@T           recover replica R at time T\n"
      "  --shards N              request-processing shards per replica (default 1)\n"
      "  --rings N               Totem rings; >1 runs the multi-ring archipelago (default 1)\n"
      "  --topology RxS          shorthand for --rings R --servers S (\"4x6\"; bare \"R\" ok)\n"
      "  --threads N             island worker threads, identical schedule for any N\n"
      "                          (default CTS_SIM_THREADS or 1)\n"
      "  --durable               stable storage: persist checkpoints to local disk\n"
      "  --kv                    drive the lease KV store instead of the time server\n"
      "  --metrics-json PATH     write per-layer metrics (counters/gauges/histograms) as JSON\n"
      "  --trace-jsonl PATH      write the structured event trace as JSON lines\n"
      "  --verbose               per-event narration\n",
      argv0);
  std::exit(2);
}

Micros parse_time(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  const std::string unit = end ? std::string(end) : "";
  if (unit == "s") return static_cast<Micros>(v * 1e6);
  if (unit == "ms") return static_cast<Micros>(v * 1e3);
  return static_cast<Micros>(v);  // us
}

FaultEvent parse_fault(FaultEvent::Kind kind, const std::string& spec, const char* argv0) {
  const auto at = spec.find('@');
  if (at == std::string::npos) usage(argv0);
  return FaultEvent{kind, static_cast<std::uint32_t>(std::stoul(spec.substr(0, at))),
                    parse_time(spec.substr(at + 1))};
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (++i >= argc) usage(argv[0]);
    return argv[i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--servers") o.servers = std::stoul(need(i));
    else if (a == "--style") {
      const auto v = need(i);
      if (v == "active") o.style = replication::ReplicationStyle::kActive;
      else if (v == "semiactive") o.style = replication::ReplicationStyle::kSemiActive;
      else if (v == "passive") o.style = replication::ReplicationStyle::kPassive;
      else usage(argv[0]);
    } else if (a == "--invocations") o.invocations = std::stoi(need(i));
    else if (a == "--think") o.think_us = parse_time(need(i));
    else if (a == "--seed") o.seed = std::stoull(need(i));
    else if (a == "--loss") o.loss = std::stod(need(i));
    else if (a == "--clock-offset") o.max_clock_offset_us = parse_time(need(i));
    else if (a == "--clock-drift") o.max_drift_ppm = std::stod(need(i));
    else if (a == "--checkpoint-every") o.checkpoint_every = static_cast<std::uint32_t>(std::stoul(need(i)));
    else if (a == "--drift") {
      const auto v = need(i);
      if (v == "none") o.drift = ccs::DriftCompensation::kNone;
      else if (v == "mean") o.drift = ccs::DriftCompensation::kMeanDelay;
      else if (v == "reference") o.drift = ccs::DriftCompensation::kReferenceBias;
      else usage(argv[0]);
    } else if (a == "--mean-delay") o.mean_delay_us = parse_time(need(i));
    else if (a == "--reference-gain") o.reference_gain = std::stod(need(i));
    else if (a == "--crash") o.faults.push_back(parse_fault(FaultEvent::Kind::kCrash, need(i), argv[0]));
    else if (a == "--recover") o.faults.push_back(parse_fault(FaultEvent::Kind::kRecover, need(i), argv[0]));
    else if (a == "--shards") o.shards = static_cast<std::uint32_t>(std::stoul(need(i)));
    else if (a == "--rings") o.rings = std::stoul(need(i));
    else if (a == "--topology") {
      const auto spec = TopologySpec::parse(need(i));
      if (!spec) usage(argv[0]);
      o.rings = spec->rings;
      o.servers = spec->servers;
    }
    else if (a == "--threads") o.threads = static_cast<unsigned>(std::stoul(need(i)));
    else if (a == "--durable") o.durable = true;
    else if (a == "--kv") o.kv = true;
    else if (a == "--metrics-json") o.metrics_json = need(i);
    else if (a == "--trace-jsonl") o.trace_jsonl = need(i);
    else if (a == "--verbose") o.verbose = true;
    else usage(argv[0]);
  }
  return o;
}

// `done` is one byte (not vector<bool>) so multi-ring runs can keep one
// flag per ring without adjacent flags sharing a word across workers.
sim::Task client_loop(Testbed& tb, const Options& o, std::vector<Micros>& stamps,
                      Histogram& lat, std::uint8_t& done) {
  Rng rng(o.seed * 17 + 3);
  for (int i = 0; i < o.invocations; ++i) {
    co_await tb.sim().delay(o.think_us);
    const Micros t0 = tb.sim().now();
    if (o.kv) {
      const std::string key = "k" + std::to_string(rng.below(32));
      Bytes req;
      switch (rng.below(3)) {
        case 0: req = kv_put(key, "v" + std::to_string(i)); break;
        case 1: req = kv_get(key); break;
        default: req = kv_acquire(key, 1 + rng.below(4), 10'000); break;
      }
      (void)co_await tb.client().call(std::move(req));
      lat.add(tb.sim().now() - t0);
    } else {
      const Bytes r = co_await tb.client().call(make_get_time_request());
      lat.add(tb.sim().now() - t0);
      BytesReader rd(r);
      stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
    }
  }
  done = 1;
}

// Sharded KV workload for the multi-ring mode: ring r's client mixes
// ring-local keys with keys other rings own; every request goes through the
// gateway router, which serves local keys on this ring and forwards the
// rest to the owning ring (gateway.forwards / gateway.misroutes).
sim::Task kv_loop_sharded(Archipelago& ar, std::size_t r, const Options& o, Histogram& lat,
                          std::uint64_t& replies, std::uint8_t& done) {
  const ShardMap& map = ar.shard_map();
  Rng rng(o.seed * 17 + 3 + r * 101);
  for (int i = 0; i < o.invocations; ++i) {
    co_await ar.ring(r).sim().delay(o.think_us);
    // Draw keys until the local/remote choice matches the configured mix.
    const bool want_remote =
        map.rings() > 1 && static_cast<double>(rng.below(1000)) < o.remote_fraction * 1000;
    std::string key;
    do {
      key = "k" + std::to_string(rng.below(64));
    } while ((map.shard_of_key(key) != r) == !want_remote);
    Bytes req;
    switch (rng.below(3)) {
      case 0: req = kv_put(key, "v" + std::to_string(i)); break;
      case 1: req = kv_get(key); break;
      default: req = kv_acquire(key, 1 + rng.below(4), 10'000); break;
    }
    const Micros t0 = ar.ring(r).sim().now();
    (void)co_await ar.router(r).call(std::move(req));
    lat.add(ar.ring(r).sim().now() - t0);
    ++replies;
  }
  done = 1;
}

// Multi-ring mode: N Totem rings as parallel islands, each with its own
// client workload, plus a cross-ring stamped ping chain (ring r -> r+1).
// Any --threads value yields the identical schedule (doc/PARALLEL.md); the
// merged metrics/trace exports are likewise byte-stable.
int run_archipelago(const Options& o) {
  if (o.durable || o.shards > 1) {
    std::fprintf(stderr, "--rings > 1 does not support --durable/--shards\n");
    return 2;
  }
  ArchipelagoConfig acfg;
  acfg.topo = TopologySpec{o.rings, o.servers, /*with_client=*/true};
  acfg.style = o.style;
  acfg.seed = o.seed;
  acfg.net.loss_probability = o.loss;
  acfg.threads = o.threads;
  if (o.kv) {
    acfg.app = [](const ShardMap& map, std::size_t ring) {
      KvStoreApp::Options kopt;
      kopt.shard_map = &map;
      kopt.ring = ring;
      return kv_store_factory(kopt);
    };
  }
  Archipelago ar(acfg);
  ar.start();

  // Fault schedule applies to ring 0.
  for (const auto& f : o.faults) {
    if (f.replica >= o.servers) {
      std::fprintf(stderr, "fault references replica %u but there are only %zu\n", f.replica,
                   o.servers);
      return 2;
    }
    auto& sim0 = ar.ring(0).sim();
    sim0.at(std::max(sim0.now(), f.at_us), [&ar, f] {
      if (f.kind == FaultEvent::Kind::kCrash) {
        ar.crash_server(0, f.replica);
      } else {
        ar.restart_server(0, f.replica);
      }
    });
  }

  // Per-ring client workloads (each written/read only by its ring's island;
  // done flags are one byte per ring, read between runs).
  std::vector<std::vector<Micros>> stamps(o.rings);
  std::vector<std::uint64_t> kv_replies(o.rings, 0);
  std::vector<Histogram> lat;
  std::vector<std::uint8_t> done(o.rings, 0);
  lat.reserve(o.rings);
  for (std::size_t r = 0; r < o.rings; ++r) lat.emplace_back(10, 10'000);
  for (std::size_t r = 0; r < o.rings; ++r) {
    if (o.kv) {
      kv_loop_sharded(ar, r, o, lat[r], kv_replies[r], done[r]);
    } else {
      client_loop(ar.ring(r), o, stamps[r], lat[r], done[r]);
    }
  }

  // Cross-ring ping chain: 20 stamped broadcasts per ring over the first
  // two seconds, ring r -> ring (r+1) % N.
  const Micros t0 = ar.now();
  for (std::size_t r = 0; r < o.rings; ++r) {
    for (int k = 0; k < 20; ++k) {
      ar.stamped_broadcast_at(t0 + 100'000 * (k + 1) + static_cast<Micros>(r) * 7'000, r,
                              (r + 1) % o.rings, Bytes{static_cast<std::uint8_t>(k)});
    }
  }

  const Micros deadline = 600'000'000'000LL;
  auto all_done = [&] {
    for (std::size_t r = 0; r < o.rings; ++r) {
      if (!done[r]) return false;
    }
    return true;
  };
  while (!all_done() && ar.now() < deadline) ar.run_until(ar.now() + 1'000'000);
  ar.run_for(2'000'000);

  // --- Report ----------------------------------------------------------------
  std::printf("# ctsim  rings=%zu servers=%zu style=%s invocations=%d seed=%llu loss=%.3f "
              "threads=%u\n\n",
              o.rings, o.servers,
              o.style == replication::ReplicationStyle::kActive        ? "active"
              : o.style == replication::ReplicationStyle::kSemiActive ? "semiactive"
                                                                       : "passive",
              o.invocations, (unsigned long long)o.seed, o.loss, o.threads);

  std::size_t violations = 0;
  bool consistent = true;
  std::uint64_t xring_delivered = 0;
  std::uint64_t forwards = 0, misroutes = 0, cross_shard = 0;
  for (std::size_t r = 0; r < o.rings; ++r) {
    auto& tb = ar.ring(r);
    std::size_t ring_viol = 0;
    for (std::size_t i = 1; i < stamps[r].size(); ++i) {
      ring_viol += (stamps[r][i] <= stamps[r][i - 1]);
    }
    violations += ring_viol;
    bool ring_consistent = true;
    if (o.kv) {
      const KvStoreApp* first = nullptr;
      for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
        if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
        if (o.style == replication::ReplicationStyle::kPassive && !tb.server(s).is_primary()) {
          continue;
        }
        auto& a = static_cast<KvStoreApp&>(tb.server(s).app());
        if (!first) first = &a;
        else ring_consistent &= (a.state_digest() == first->state_digest());
      }
    } else {
      const TimeServerApp* first = nullptr;
      for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
        if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
        if (o.style == replication::ReplicationStyle::kPassive && !tb.server(s).is_primary()) {
          continue;
        }
        auto& a = tb.server_app(s);
        if (!first) first = &a;
        else ring_consistent &= (a.time_history() == first->time_history());
      }
    }
    consistent &= ring_consistent;
    xring_delivered += ar.stamped_deliveries(r);
    forwards += tb.recorder().counter("gateway.forwards").value;
    misroutes += tb.recorder().counter("gateway.misroutes").value;
    if (const auto* orc = tb.recorder().oracle()) cross_shard += orc->cross_shard_violations();
    const std::size_t replies = o.kv ? kv_replies[r] : stamps[r].size();
    std::printf("ring %zu: replies=%zu/%d  latency mean=%.1f us p99=%lld  "
                "monotonicity violations=%zu  consistent=%s  stamped-deliveries=%llu\n",
                r, replies, o.invocations, lat[r].mean(),
                (long long)lat[r].percentile(0.99), ring_viol, ring_consistent ? "yes" : "NO",
                (unsigned long long)ar.stamped_deliveries(r));
  }
  const auto link = ar.link().total_stats();
  const auto& cstats = ar.coordinator().stats();
  std::printf("\ncross-ring: %llu frames (%llu bytes) over the link;  "
              "coordinator: %llu epochs, %llu posts, %llu events\n",
              (unsigned long long)link.frames_sent, (unsigned long long)link.bytes_sent,
              (unsigned long long)cstats.epochs, (unsigned long long)cstats.posts,
              (unsigned long long)cstats.events_executed);
  std::printf("gateway: forwards=%llu misroutes=%llu;  oracle.cross_shard=%llu\n",
              (unsigned long long)forwards, (unsigned long long)misroutes,
              (unsigned long long)cross_shard);
  std::printf("total monotonicity violations: %zu;  all rings consistent: %s\n", violations,
              consistent ? "yes" : "NO");

  // --- Observability export (deterministically merged across islands) --------
  auto recs = ar.recorders();
  if (!o.metrics_json.empty() || !o.trace_jsonl.empty()) {
    if (!obs::export_merged_files(recs, o.metrics_json, o.trace_jsonl)) {
      std::fprintf(stderr, "warning: could not write merged obs exports\n");
    }
  }
  obs::export_merged_from_env(recs, "ctsim");
  if (o.verbose) {
    for (std::size_t r = 0; r < o.rings; ++r) {
      std::printf("\n--- ring %zu ---\n%s", r, recs[r]->summary().c_str());
    }
  }

  const bool gateway_ok = !o.kv || forwards > 0;
  return violations == 0 && consistent && xring_delivered > 0 && cross_shard == 0 && gateway_ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.rings > 1) return run_archipelago(o);

  TestbedConfig cfg;
  cfg.servers = o.servers;
  cfg.style = o.style;
  cfg.seed = o.seed;
  cfg.net.loss_probability = o.loss;
  cfg.max_clock_offset_us = o.max_clock_offset_us;
  cfg.max_drift_ppm = o.max_drift_ppm;
  cfg.checkpoint_every = o.checkpoint_every;
  cfg.drift = o.drift;
  cfg.mean_delay_us = o.mean_delay_us;
  cfg.reference_gain = o.reference_gain;
  cfg.shards = o.shards;
  if (o.shards > 1) cfg.shard_fn = kv_shard_of;
  cfg.with_stable_storage = o.durable;
  if (o.durable) cfg.persist_every = 10;
  if (o.kv) cfg.factory = kv_store_factory();
  Testbed tb(cfg);

  clock::ReferenceTimeSource ref(tb.sim(), Rng(o.seed * 31 + 5), 200);
  if (o.drift == ccs::DriftCompensation::kReferenceBias) {
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      tb.server(s).time_service().set_reference(&ref);
    }
  }
  tb.start();

  // Fault schedule.
  for (const auto& f : o.faults) {
    if (f.replica >= tb.server_count()) {
      std::fprintf(stderr, "fault references replica %u but there are only %zu\n", f.replica,
                   tb.server_count());
      return 2;
    }
    tb.sim().at(std::max(tb.sim().now(), f.at_us), [&tb, f, &o] {
      if (f.kind == FaultEvent::Kind::kCrash) {
        if (o.verbose) std::printf("[%lld us] crash replica %u\n", (long long)f.at_us, f.replica);
        tb.crash_server(f.replica);
      } else {
        if (o.verbose) std::printf("[%lld us] recover replica %u\n", (long long)f.at_us, f.replica);
        tb.restart_server(f.replica);
      }
    });
  }

  std::vector<Micros> stamps;
  Histogram lat(10, 10'000);
  std::uint8_t done = 0;
  client_loop(tb, o, stamps, lat, done);
  const Micros deadline = 600'000'000'000LL;
  while (!done && tb.sim().now() < deadline) tb.sim().run_until(tb.sim().now() + 1'000'000);
  tb.sim().run_for(2'000'000);

  // --- Report ----------------------------------------------------------------
  std::printf("# ctsim  servers=%zu style=%s invocations=%d seed=%llu loss=%.3f\n\n",
              o.servers,
              o.style == replication::ReplicationStyle::kActive        ? "active"
              : o.style == replication::ReplicationStyle::kSemiActive ? "semiactive"
                                                                       : "passive",
              o.invocations, (unsigned long long)o.seed, o.loss);

  std::printf("end-to-end latency: mean=%.1f us  p50=%lld  p99=%lld  max=%lld\n", lat.mean(),
              (long long)lat.percentile(0.5), (long long)lat.percentile(0.99),
              (long long)lat.max());

  std::size_t violations = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) violations += (stamps[i] <= stamps[i - 1]);
  if (!o.kv) {
    std::printf("replies: %zu of %d;  monotonicity violations: %zu\n", stamps.size(),
                o.invocations, violations);
  }

  std::uint64_t ccs_wire = 0, rounds = 0;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    ccs_wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
    rounds = std::max(rounds, tb.server(s).time_service().stats().rounds_completed);
  }
  std::printf("CCS rounds: %llu;  CCS messages on the wire: %llu (%.3f per round)\n",
              (unsigned long long)rounds, (unsigned long long)ccs_wire,
              rounds ? (double)ccs_wire / (double)rounds : 0.0);

  bool consistent = true;
  if (o.kv) {
    std::uint64_t digest = 0;
    bool have = false;
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
      if (o.style == replication::ReplicationStyle::kPassive && !tb.server(s).is_primary()) {
        continue;
      }
      for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
        const auto d = static_cast<KvStoreApp&>(tb.server(s).app(sh)).state_digest();
        if (!have && sh == 0) {
          digest = d;
          have = true;
        }
      }
    }
    // Pairwise per-shard comparison across live servers.
    for (std::uint32_t s = 1; s < tb.server_count(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
      for (std::uint32_t sh = 0; sh < tb.server(s).shard_count(); ++sh) {
        consistent &= static_cast<KvStoreApp&>(tb.server(s).app(sh)).state_digest() ==
                      static_cast<KvStoreApp&>(tb.server(0).app(sh)).state_digest();
      }
    }
    (void)digest;
  } else {
    const TimeServerApp* first = nullptr;
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive() || !tb.server(s).recovered()) continue;
      if (o.style == replication::ReplicationStyle::kPassive && !tb.server(s).is_primary()) {
        continue;  // passive backups hold checkpointed state, not live history
      }
      auto& a = tb.server_app(s);
      if (!first) first = &a;
      else consistent &= (a.time_history() == first->time_history());
    }
  }
  std::printf("replica state consistent: %s\n", consistent ? "yes" : "NO");

  std::printf("\nper-replica detail:\n");
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    const auto& st = tb.server(s).stats();
    const auto& ts = tb.server(s).time_service().stats();
    std::printf(
        "  r%u%-2s processed=%llu replayed=%llu ckpt=%llu/%llu rounds=%llu won=%llu "
        "sends=%llu avoided=%llu offset=%lld\n",
        s + 1,
        !tb.clock_of(tb.server_node(s)).alive() ? "✗"
        : tb.server(s).is_primary()             ? "*"
                                                : "",
        (unsigned long long)st.requests_processed, (unsigned long long)st.requests_replayed,
        (unsigned long long)st.checkpoints_taken, (unsigned long long)st.checkpoints_applied,
        (unsigned long long)ts.rounds_completed, (unsigned long long)ts.rounds_won,
        (unsigned long long)ts.sends_initiated, (unsigned long long)ts.sends_avoided,
        (long long)tb.server(s).time_service().clock_offset());
  }

  // --- Observability export ---------------------------------------------------
  if (!o.metrics_json.empty() && !tb.recorder().metrics().write_json(o.metrics_json)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n", o.metrics_json.c_str());
  }
  if (!o.trace_jsonl.empty() && !tb.recorder().trace().write_jsonl(o.trace_jsonl)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n", o.trace_jsonl.c_str());
  }
  obs::export_from_env(tb.recorder(), "ctsim");
  if (o.verbose) std::printf("\n%s", tb.recorder().summary().c_str());

  return violations == 0 && consistent ? 0 : 1;
}
