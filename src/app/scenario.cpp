#include "app/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <ranges>
#include <span>
#include <stdexcept>
#include <utility>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/topology.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "obs/merge.hpp"
#include "obs/recorder.hpp"

namespace cts::app {

namespace {

using replication::ReplicationStyle;
using ull = unsigned long long;  // printf's %llu
using ll = long long;            // printf's %lld

/// Multi-ring KV: fraction of each client's requests aimed at keys another
/// ring owns, so the gateway router has forwarding to do.
constexpr double kRemoteFraction = 0.5;

/// Upper bound on the seeds one `--seed` list may expand to.
constexpr std::size_t kMaxSeeds = std::size_t{1} << 20;

/// A closed-loop run gives up this long (simulated) after its last reply.
constexpr Micros kReplyPatienceUs = 600'000'000;

[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.pop_back();  // vsnprintf's terminator
  }
  va_end(again);
}

const char* style_name(ReplicationStyle s) {
  return s == ReplicationStyle::kActive       ? "active"
         : s == ReplicationStyle::kSemiActive ? "semiactive"
                                              : "passive";
}

/// A time of at least 0: a number and a unit, `us`, `ms` or `s` (bare = us).
Micros parse_time(std::string_view text) {
  const std::string s(text);
  std::size_t end = 0;
  const double v = std::stod(s, &end);
  const std::string_view unit = text.substr(end);
  const double us = v * (unit == "s" ? 1e6 : unit == "ms" ? 1e3 : 1.0);
  if ((!unit.empty() && unit != "us" && unit != "ms" && unit != "s") || !(us >= 0 && us < 1e15)) {
    throw std::invalid_argument(s);
  }
  return static_cast<Micros>(std::llround(us));
}

/// The shortest exact spelling parse_time() reads back.
std::string time_text(Micros t) {
  if (t != 0 && t % 1'000'000 == 0) return std::to_string(t / 1'000'000) + "s";
  if (t != 0 && t % 1'000 == 0) return std::to_string(t / 1'000) + "ms";
  return std::to_string(t) + "us";
}

/// A plain decimal count (digits only) of at most `max`.
std::uint64_t parse_count(std::string_view s, std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || v > max) {
    throw std::invalid_argument(std::string(s));
  }
  return v;
}

constexpr std::string_view kFaultKinds[] = {"crash", "recover", "partition", "heal", "step"};

/// `f` without its trigger: `crash:1`, `heal`, `step:0-5s`.
std::string kind_text(const FaultEvent& f) {
  std::string s(kFaultKinds[static_cast<std::size_t>(f.kind)]);
  if (f.kind != FaultEvent::Kind::kHeal) s += ":" + std::to_string(f.replica);
  if (f.kind == FaultEvent::Kind::kStep) {
    s += (f.step_us < 0 ? "-" : "+") + time_text(std::abs(f.step_us));
  }
  return s;
}

/// `N`, `A-B` (inclusive), or a comma-separated list of either.
std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::size_t p = 0;
  for (;;) {
    const auto comma = text.find(',', p);
    const std::string part = text.substr(p, comma == std::string::npos ? comma : comma - p);
    const auto dash = part.find('-');
    const std::uint64_t lo = std::stoull(part.substr(0, dash));
    const std::uint64_t hi = dash == std::string::npos ? lo : std::stoull(part.substr(dash + 1));
    if (hi < lo || hi - lo >= kMaxSeeds - seeds.size()) throw std::invalid_argument(part);
    for (std::uint64_t k = 0; k <= hi - lo; ++k) seeds.push_back(lo + k);
    if (comma == std::string::npos) return seeds;
    p = comma + 1;
  }
}

// --- Workloads ---------------------------------------------------------------

/// One ring's client-side tallies.  Written only by that ring's island and
/// read after the run, so multi-ring runs need no locking.
struct RingLoad {
  std::vector<Micros> stamps;  // time-server replies, in reply order
  Histogram lat{10, 10'000};
  std::uint64_t issued = 0;
  std::uint64_t replies = 0;
};

Bytes random_kv_request(Rng& rng, const std::string& key, int i) {
  switch (rng.below(3)) {
    case 0: return kv_put(key, "v" + std::to_string(i));
    case 1: return kv_get(key);
    default: return kv_acquire(key, 1 + rng.below(4), 10'000);
  }
}

/// Closed-loop client on one ring's RMI client: think, call, record.
sim::Task client_loop(Testbed& tb, const ScenarioSpec& o, RingLoad& load) {
  Rng rng(o.seed * 17 + 3);
  for (int i = 0; i < o.invocations; ++i) {
    co_await tb.sim().delay(o.think_us);
    const Micros t0 = tb.sim().now();
    ++load.issued;
    if (o.kv) {
      const std::string key = "k" + std::to_string(rng.below(32));
      (void)co_await tb.client().call(random_kv_request(rng, key, i));
      load.lat.add(tb.sim().now() - t0);
    } else {
      const Bytes r = co_await tb.client().call(make_get_time_request());
      load.lat.add(tb.sim().now() - t0);
      BytesReader rd(r);
      load.stamps.push_back(rd.i64() * 1'000'000 + rd.i64());
    }
    ++load.replies;
  }
}

/// Sharded KV client for multi-ring runs: ring r's client mixes ring-local
/// keys with keys other rings own, and every request goes through the
/// gateway router, which forwards remote keys to their owning ring.
sim::Task kv_loop_sharded(Archipelago& ar, std::size_t r, const ScenarioSpec& o,
                          RingLoad& load) {
  const ShardMap& map = ar.shard_map();
  Rng rng(o.seed * 17 + 3 + r * 101);
  for (int i = 0; i < o.invocations; ++i) {
    co_await ar.ring(r).sim().delay(o.think_us);
    // Draw keys until the local/remote choice matches the configured mix.
    const bool want_remote =
        map.rings() > 1 && static_cast<double>(rng.below(1000)) < kRemoteFraction * 1000;
    std::string key;
    do {
      key = "k" + std::to_string(rng.below(64));
    } while ((map.shard_of_key(key) != r) == !want_remote);
    Bytes req = random_kv_request(rng, key, i);
    const Micros t0 = ar.ring(r).sim().now();
    ++load.issued;
    (void)co_await ar.router(r).call(std::move(req));
    load.lat.add(ar.ring(r).sim().now() - t0);
    ++load.replies;
  }
}

/// Run `clock` (a Simulator or an Archipelago) in 1 s slices until every
/// client loop has its `invocations` replies, giving up after
/// kReplyPatienceUs without a new reply, then until `last_fault` (the last
/// timed fault has fired), then a 2 s tail.
template <typename Clock>
void drain_clients(Clock& clock, std::span<const RingLoad> load, int invocations,
                   Micros last_fault) {
  auto replies = [&] {
    std::uint64_t n = 0;
    for (const RingLoad& l : load) n += l.replies;
    return n;
  };
  const std::uint64_t want = static_cast<std::uint64_t>(invocations) * load.size();
  Micros last_reply = clock.now();
  for (std::uint64_t seen = replies(); seen < want;) {
    clock.run_until(clock.now() + 1'000'000);
    if (const std::uint64_t n = replies(); n != seen) {
      seen = n;
      last_reply = clock.now();
    } else if (clock.now() - last_reply >= kReplyPatienceUs) {
      break;
    }
  }
  if (clock.now() < last_fault) clock.run_until(last_fault);
  clock.run_for(2'000'000);
}

// --- Faults ------------------------------------------------------------------

/// Applies faults to ring 0 (`tb`; with several rings, `ar`'s ring 0) and
/// checks fail-stop over every crash interval: from its crash until its
/// restart or the end of the run, a crashed node's Totem counters must not
/// move.
class FaultInjector {
 public:
  FaultInjector(Testbed& tb, Archipelago* ar, const ScenarioSpec& o, std::string& out)
      : tb_(tb), ar_(ar), o_(o), out_(out), at_crash_(tb.server_count()) {}

  /// The one path for every fault: the spec's timed and event-indexed
  /// faults and the chaos driver's crashes and restarts.
  void apply(const FaultEvent& f) {
    if (o_.verbose) appendf(out_, "[%lld us] %s\n", ll(tb_.sim().now()), kind_text(f).c_str());
    const std::uint32_t node = tb_.server_node(f.replica);
    switch (f.kind) {
      case FaultEvent::Kind::kCrash:
        if (ar_ != nullptr) ar_->crash_server(0, f.replica);
        else tb_.crash_server(f.replica);
        if (!at_crash_[f.replica]) at_crash_[f.replica] = tb_.totem_of(node).stats();
        break;
      case FaultEvent::Kind::kRecover:
        check_frozen(f.replica);
        if (ar_ != nullptr) ar_->restart_server(0, f.replica);
        else tb_.restart_server(f.replica);
        break;
      case FaultEvent::Kind::kPartition: tb_.net().partition({{NodeId{node}}}); break;
      case FaultEvent::Kind::kHeal: tb_.net().heal(); break;
      case FaultEvent::Kind::kStep: tb_.clock_of(node).step(f.step_us); break;
    }
  }

  /// Schedule the timed faults; one timed before start-up finished fires
  /// right away.  Returns the time the last one fires (0 without any).
  Micros schedule_timed() {
    Micros last = 0;
    for (const FaultEvent& f : o_.faults) {
      if (f.trigger != FaultEvent::Trigger::kTime) continue;
      const Micros at = std::max(tb_.sim().now(), f.at);
      last = std::max(last, at);
      // On the simulator, not a node's scope: a crash must not die with the
      // node it crashes.
      tb_.sim().at(at, [this, f] { apply(f); });
    }
    return last;
  }

  /// Apply the event-indexed faults in index order, stepping ring 0's
  /// simulator up to each.  Called right after the client loop starts.
  void step_to_indexed() {
    std::vector<FaultEvent> due = o_.faults;
    std::erase_if(due, [](const FaultEvent& f) { return f.trigger == FaultEvent::Trigger::kTime; });
    std::ranges::stable_sort(due, {}, &FaultEvent::at);
    for (std::int64_t stepped = 0; const FaultEvent& f : due) {
      while (stepped < f.at && tb_.sim().step()) ++stepped;
      apply(f);
    }
  }

  /// Close the crash intervals still open; returns how many intervals saw
  /// the dead node's Totem counters move.
  std::uint64_t finish() {
    for (std::uint32_t s = 0; s < at_crash_.size(); ++s) check_frozen(s);
    return moved_;
  }

 private:
  void check_frozen(std::uint32_t s) {
    if (!at_crash_[s]) return;
    moved_ += tb_.totem_of(tb_.server_node(s)).stats() != *at_crash_[s];
    at_crash_[s].reset();
  }

  Testbed& tb_;
  Archipelago* ar_;
  const ScenarioSpec& o_;
  std::string& out_;
  std::vector<std::optional<totem::TotemStats>> at_crash_;  // per open crash interval
  std::uint64_t moved_ = 0;
};

/// The KV crash fuzz behind `--chaos` (scenario.hpp), stepped from outside
/// the event loop.  Every draw comes from one Rng in a fixed order, so a
/// seed replays its whole schedule.  Replies land in `load`.
void run_chaos(Testbed& tb, const ScenarioSpec& o, RingLoad& load, FaultInjector& faults) {
  Rng rng(o.seed * 7 + 1);
  const auto n = static_cast<std::uint32_t>(tb.server_count());
  auto alive = [&](std::uint32_t v) { return tb.clock_of(tb.server_node(v)).alive(); };
  // Up: alive and done rejoining.
  auto up = [&](std::uint32_t v) { return alive(v) && tb.server(v).recovered(); };
  auto ups = [&] {
    return static_cast<std::uint32_t>(std::ranges::count_if(std::views::iota(0u, n), up));
  };
  auto issue = [&] {
    const std::string key = "k" + std::to_string(rng.below(10));
    Bytes req;
    switch (rng.below(5)) {
      case 0: req = kv_put(key, "v" + std::to_string(load.issued), rng.below(3)); break;
      case 1: req = kv_get(key); break;
      case 2: req = kv_del(key, rng.below(3)); break;
      case 3: {
        const Micros ttl = 1'000 + static_cast<Micros>(rng.below(20'000));
        req = kv_acquire(key, 1 + rng.below(3), ttl);
        break;
      }
      default: req = kv_release(key, 1 + rng.below(3)); break;
    }
    ++load.issued;
    tb.client().invoke(std::move(req), [&load, &sim = tb.sim(), t0 = tb.sim().now()](const Bytes&) {
      load.lat.add(sim.now() - t0);
      ++load.replies;
    });
  };

  for (int step = 0; step < o.invocations; ++step) {
    tb.sim().run_for(rng.range(o.think_us, 10 * o.think_us));
    const std::uint64_t roll = rng.below(o.chaos);
    if (roll == 0) {
      // Crash only if a majority of the universe (the servers and the
      // client) stays up: with three servers, all three must be up.
      if (2 * ups() > n + 1) {
        const auto v = static_cast<std::uint32_t>(rng.below(n));
        if (up(v)) faults.apply({FaultEvent::Kind::kCrash, v});
      }
    } else if (roll == 1) {
      std::uint32_t v = 0;
      while (v < n && alive(v)) ++v;
      if (v < n) faults.apply({FaultEvent::Kind::kRecover, v});
    } else {
      issue();
    }
  }

  // Quiesce: restart every crashed replica, then drain until every request
  // is answered and every replica has rejoined.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!alive(v)) faults.apply({FaultEvent::Kind::kRecover, v});
  }
  const Micros give_up = tb.sim().now() + kReplyPatienceUs;
  while (tb.sim().now() < give_up) {
    tb.sim().run_until(tb.sim().now() + 100'000);
    if (load.replies == load.issued && ups() == n) break;
  }
  tb.sim().run_for(5'000'000);
}

// --- Checks ------------------------------------------------------------------

std::uint64_t monotonicity_violations(const std::vector<Micros>& stamps) {
  std::uint64_t v = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) v += (stamps[i] <= stamps[i - 1]);
  return v;
}

Micros max_clock_step(const std::vector<Micros>& stamps) {
  Micros m = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) m = std::max(m, stamps[i] - stamps[i - 1]);
  return m;
}

/// The report lines of the liveness and fail-stop checks that failed.
void append_failures(std::string& out, const ScenarioResult& res) {
  if (res.unrecovered) appendf(out, "replicas still rejoining: %llu\n", ull(res.unrecovered));
  if (res.dropped) appendf(out, "dropped replies: %llu\n", ull(res.dropped));
  if (res.crashed_node_activity) {
    appendf(out, "crashed nodes active while down: %llu\n", ull(res.crashed_node_activity));
  }
}

/// The spec's faults as `--fault` arguments, for the report header.
std::string fault_args(const ScenarioSpec& o) {
  std::string s;
  for (const FaultEvent& f : o.faults) s += " --fault " + to_string(f);
  return s;
}

/// Every live, recovered replica that answers clients (all of them for
/// active and semi-active, the primary for passive, whose backups hold
/// checkpointed state) holds the same state as the first one, shard by shard.
bool replicas_consistent(Testbed& tb, const ScenarioSpec& o) {
  std::vector<std::uint64_t> first;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    auto& m = tb.server(s);
    if (!tb.clock_of(tb.server_node(s)).alive() || !m.recovered()) continue;
    if (o.style == ReplicationStyle::kPassive && !m.is_primary()) continue;
    std::vector<std::uint64_t> digests;
    for (std::uint32_t sh = 0; sh < m.shard_count(); ++sh) {
      digests.push_back(m.app(sh).state_digest());
    }
    if (first.empty()) first = std::move(digests);
    else if (digests != first) return false;
  }
  return true;
}

/// Add one ring's oracle, cross-shard, tripwire, liveness and rejoin totals.
void tally_ring(Testbed& tb, ScenarioResult& res) {
  if (const auto* orc = tb.recorder().oracle()) {
    res.oracle_checks += orc->checks_run();
    res.oracle_violations += orc->violations();
    res.cross_shard += orc->cross_shard_violations();
  }
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    const auto& clk = tb.clock_of(tb.server_node(s));
    res.reads_after_failure += clk.reads_after_failure();
    res.all_alive = res.all_alive && clk.alive();
    res.unrecovered += clk.alive() && !tb.server(s).recovered();
  }
}

/// Fingerprint of the recorders' metrics and traces, in the given order.
/// Folds trace events field by field rather than rendering the JSONL, so a
/// 16-ring run costs a pass over its events, not a copy of its export.
std::uint64_t export_digest(const std::vector<obs::Recorder*>& recs) {
  std::uint64_t h = fnv1a64({});
  for (obs::Recorder* rec : recs) {
    const std::string json = rec->metrics().to_json();
    h = fnv1a64(Bytes(json.begin(), json.end()), h);
    for (const obs::TraceEvent& e : rec->trace().events()) {
      h = fnv1a64_fold(h, static_cast<std::uint64_t>(e.at));
      h = fnv1a64_fold(h, static_cast<std::uint64_t>(e.kind) << 32 | e.node);
      h = fnv1a64_fold(h, e.replica);
      h = fnv1a64_fold(h, static_cast<std::uint64_t>(e.a));
      h = fnv1a64_fold(h, static_cast<std::uint64_t>(e.b));
      h = fnv1a64_fold(h, static_cast<std::uint64_t>(e.c));
    }
  }
  return h;
}

// --- Rings -------------------------------------------------------------------

/// The settings every ring of `o` shares: the Archipelago's ring template.
/// Servers, seed and factory are set per ring (by run_testbed, or by the
/// Archipelago from its topology, seed and app).
TestbedConfig ring_config(const ScenarioSpec& o) {
  TestbedConfig cfg;
  cfg.style = o.style;
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
  return cfg;
}

// --- One ring: a Testbed -----------------------------------------------------

ScenarioResult run_testbed(const ScenarioSpec& o) {
  TestbedConfig cfg = ring_config(o);
  cfg.servers = o.servers;
  cfg.seed = o.seed;
  if (o.kv) cfg.factory = kv_store_factory();
  Testbed tb(std::move(cfg));
  tb.start();

  ScenarioResult res;
  res.seed = o.seed;
  std::string& out = res.report;
  FaultInjector faults(tb, nullptr, o, out);
  const Micros last_fault = faults.schedule_timed();

  RingLoad load;
  if (o.chaos > 0) {
    run_chaos(tb, o, load, faults);
  } else {
    client_loop(tb, o, load);
    faults.step_to_indexed();
    drain_clients(tb.sim(), {&load, 1}, o.invocations, last_fault);
  }

  res.replies = load.replies;
  res.dropped = load.issued - load.replies;
  res.monotonicity_violations = monotonicity_violations(load.stamps);
  res.max_clock_step_us = max_clock_step(load.stamps);
  res.consistent = replicas_consistent(tb, o);
  res.crashed_node_activity = faults.finish();
  tally_ring(tb, res);
  res.export_digest = export_digest({&tb.recorder()});

  appendf(out, "# ctsim  servers=%zu style=%s invocations=%d seed=%llu loss=%.3f%s\n\n", o.servers,
          style_name(o.style), o.invocations, ull(o.seed), o.loss, fault_args(o).c_str());
  const Histogram& lat = load.lat;
  appendf(out, "end-to-end latency: mean=%.1f us  p50=%lld  p99=%lld  max=%lld\n", lat.mean(),
          ll(lat.percentile(0.5)), ll(lat.percentile(0.99)), ll(lat.max()));
  if (!o.kv) {
    appendf(out, "replies: %zu of %d;  monotonicity violations: %llu;  largest step: %lld us\n",
            load.stamps.size(), o.invocations, ull(res.monotonicity_violations),
            ll(res.max_clock_step_us));
  }
  std::uint64_t ccs_wire = 0, rounds = 0;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    ccs_wire += tb.gcs_of(tb.server_node(s)).stats().on_wire(gcs::MsgType::kCcs);
    rounds = std::max(rounds, tb.server(s).time_service().stats().rounds_completed);
  }
  appendf(out, "CCS rounds: %llu;  CCS messages on the wire: %llu (%.3f per round)\n", ull(rounds),
          ull(ccs_wire), rounds ? static_cast<double>(ccs_wire) / static_cast<double>(rounds) : 0.0);
  appendf(out, "replica state consistent: %s\n", res.consistent ? "yes" : "NO");
  append_failures(out, res);
  out += "\nper-replica detail:\n";
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    const auto& st = tb.server(s).stats();
    const auto& ts = tb.server(s).time_service().stats();
    const char* mark = !tb.clock_of(tb.server_node(s)).alive() ? "✗"
                       : tb.server(s).is_primary()             ? "*"
                                                               : "";
    appendf(out,
            "  r%u%-2s processed=%llu replayed=%llu ckpt=%llu/%llu rounds=%llu won=%llu "
            "sends=%llu avoided=%llu offset=%lld\n",
            s + 1, mark, ull(st.requests_processed), ull(st.requests_replayed),
            ull(st.checkpoints_taken), ull(st.checkpoints_applied), ull(ts.rounds_completed),
            ull(ts.rounds_won), ull(ts.sends_initiated), ull(ts.sends_avoided),
            ll(tb.server(s).time_service().clock_offset()));
  }

  obs::Recorder& rec = tb.recorder();
  if (!o.metrics_json.empty() && !rec.metrics().write_json(o.metrics_json)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n", o.metrics_json.c_str());
  }
  if (!o.trace_jsonl.empty() && !rec.trace().write_jsonl(o.trace_jsonl)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n", o.trace_jsonl.c_str());
  }
  obs::export_from_env(rec, o.label);
  if (o.verbose) out += "\n" + rec.summary();
  return res;
}

// --- Several rings: an Archipelago ------------------------------------------

/// N Totem rings as parallel islands, each with its own client workload,
/// plus a cross-ring stamped ping chain (ring r -> r+1).  Faults hit ring 0.
ScenarioResult run_archipelago(const ScenarioSpec& o) {
  ArchipelagoConfig acfg;
  acfg.topo = TopologySpec{o.rings, o.servers, /*with_client=*/true};
  acfg.ring = ring_config(o);
  acfg.seed = o.seed;
  acfg.threads = o.threads;
  if (o.kv) {
    acfg.app = [](const ShardMap& map, std::size_t ring) {
      return kv_store_factory({.shard_map = &map, .ring = ring});
    };
  }
  Archipelago ar(acfg);
  ar.start();

  ScenarioResult res;
  res.seed = o.seed;
  std::string& out = res.report;
  FaultInjector faults(ar.ring(0), &ar, o, out);
  const Micros last_fault = faults.schedule_timed();

  std::vector<RingLoad> load(o.rings);
  for (std::size_t r = 0; r < o.rings; ++r) {
    if (o.kv) kv_loop_sharded(ar, r, o, load[r]);
    else client_loop(ar.ring(r), o, load[r]);
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

  drain_clients(ar, load, o.invocations, last_fault);
  res.crashed_node_activity = faults.finish();

  appendf(out,
          "# ctsim  rings=%zu servers=%zu style=%s invocations=%d seed=%llu loss=%.3f "
          "threads=%u%s\n\n",
          o.rings, o.servers, style_name(o.style), o.invocations, ull(o.seed), o.loss, o.threads,
          fault_args(o).c_str());
  std::uint64_t xring_delivered = 0, forwards = 0;
  for (std::size_t r = 0; r < o.rings; ++r) {
    auto& tb = ar.ring(r);
    const std::uint64_t ring_viol = monotonicity_violations(load[r].stamps);
    const bool ring_consistent = replicas_consistent(tb, o);
    res.replies += load[r].replies;
    res.dropped += load[r].issued - load[r].replies;
    res.monotonicity_violations += ring_viol;
    res.max_clock_step_us = std::max(res.max_clock_step_us, max_clock_step(load[r].stamps));
    res.consistent = res.consistent && ring_consistent;
    tally_ring(tb, res);
    xring_delivered += ar.stamped_deliveries(r);
    forwards += tb.recorder().counter("gateway.forwards").value;
    appendf(out,
            "ring %zu: replies=%llu/%d  latency mean=%.1f us p99=%lld  "
            "monotonicity violations=%llu  consistent=%s  stamped-deliveries=%llu\n",
            r, ull(load[r].replies), o.invocations, load[r].lat.mean(),
            ll(load[r].lat.percentile(0.99)), ull(ring_viol), ring_consistent ? "yes" : "NO",
            ull(ar.stamped_deliveries(r)));
  }
  res.cross_ring_ok = xring_delivered > 0 && (!o.kv || forwards > 0);

  const auto link = ar.link().total_stats();
  const auto& cstats = ar.coordinator().stats();
  appendf(out,
          "\ncross-ring: %llu frames (%llu bytes) over the link;  "
          "coordinator: %llu epochs, %llu posts, %llu events\n",
          ull(link.frames_sent), ull(link.bytes_sent), ull(cstats.epochs), ull(cstats.posts),
          ull(cstats.events_executed));
  appendf(out, "gateway: forwards=%llu;  oracle.cross_shard=%llu\n", ull(forwards),
          ull(res.cross_shard));
  appendf(out, "total monotonicity violations: %llu;  all rings consistent: %s\n",
          ull(res.monotonicity_violations), res.consistent ? "yes" : "NO");
  append_failures(out, res);

  // Exports are merged across islands in ring order, so they are
  // byte-stable for any thread count.
  const auto recs = ar.recorders();
  res.export_digest = export_digest(recs);
  if (!o.metrics_json.empty() || !o.trace_jsonl.empty()) {
    if (!obs::export_merged_files(recs, o.metrics_json, o.trace_jsonl)) {
      std::fprintf(stderr, "warning: could not write merged obs exports\n");
    }
  }
  obs::export_merged_from_env(recs, o.label);
  if (o.verbose) {
    for (std::size_t r = 0; r < o.rings; ++r) {
      appendf(out, "\n--- ring %zu ---\n", r);
      out += recs[r]->summary();
    }
  }
  return res;
}

}  // namespace

std::optional<FaultEvent> parse_fault(std::string_view text) {
  constexpr auto npos = std::string_view::npos;
  auto check = [](bool ok) {
    if (!ok) throw std::invalid_argument("fault");
  };
  try {
    const auto at = text.find('@');
    check(at != npos);
    std::string_view what = text.substr(0, at);
    const std::string_view when = text.substr(at + 1);
    const auto colon = what.find(':');
    const auto kind = std::ranges::find(kFaultKinds, what.substr(0, colon));
    check(kind != std::end(kFaultKinds));
    FaultEvent f{static_cast<FaultEvent::Kind>(kind - std::begin(kFaultKinds))};
    if (when.starts_with("ev")) {
      f.trigger = FaultEvent::Trigger::kEvent;
      f.at = static_cast<std::int64_t>(parse_count(when.substr(2), INT64_MAX));
    } else {
      f.at = parse_time(when);
    }
    check((f.kind == FaultEvent::Kind::kHeal) == (colon == npos));
    if (colon == npos) return f;
    what.remove_prefix(colon + 1);
    if (f.kind == FaultEvent::Kind::kStep) {
      const auto sign = what.find_first_of("+-");
      check(sign != npos);
      f.step_us = parse_time(what.substr(sign + 1)) * (what[sign] == '-' ? -1 : 1);
      what = what.substr(0, sign);
    }
    f.replica = static_cast<std::uint32_t>(parse_count(what, UINT32_MAX));
    return f;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string to_string(const FaultEvent& f) {
  return kind_text(f) + "@" +
         (f.trigger == FaultEvent::Trigger::kEvent ? "ev" + std::to_string(f.at) : time_text(f.at));
}

ScenarioArgs parse_scenario_args(int argc, const char* const* argv) {
  ScenarioArgs args;
  ScenarioSpec& o = args.spec;
  args.seeds = {o.seed};
  try {
    auto need = [&](int& i) -> std::string {
      if (++i >= argc) throw std::invalid_argument("missing value");
      return argv[i];
    };
    // Digits only: std::stoul would wrap "-1" to a huge count.
    auto count = [&](int& i) {
      return static_cast<std::uint32_t>(parse_count(need(i), UINT32_MAX));
    };
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--servers") o.servers = count(i);
      else if (a == "--style") {
        const auto v = need(i);
        if (v == "active") o.style = ReplicationStyle::kActive;
        else if (v == "semiactive") o.style = ReplicationStyle::kSemiActive;
        else if (v == "passive") o.style = ReplicationStyle::kPassive;
        else throw std::invalid_argument(v);
      } else if (a == "--invocations") o.invocations = std::stoi(need(i));
      else if (a == "--think") o.think_us = parse_time(need(i));
      else if (a == "--seed") args.seeds = parse_seeds(need(i));
      else if (a == "--loss") o.loss = std::stod(need(i));
      else if (a == "--clock-offset") o.max_clock_offset_us = parse_time(need(i));
      else if (a == "--clock-drift") o.max_drift_ppm = std::stod(need(i));
      else if (a == "--checkpoint-every") o.checkpoint_every = count(i);
      else if (a == "--drift") {
        const auto v = need(i);
        if (v == "none") o.drift = ccs::DriftCompensation::kNone;
        else if (v == "mean") o.drift = ccs::DriftCompensation::kMeanDelay;
        else if (v == "reference") o.drift = ccs::DriftCompensation::kReferenceBias;
        else throw std::invalid_argument(v);
      } else if (a == "--mean-delay") o.mean_delay_us = parse_time(need(i));
      else if (a == "--reference-gain") o.reference_gain = std::stod(need(i));
      else if (a == "--fault") {
        const auto f = parse_fault(need(i));
        if (!f) throw std::invalid_argument(argv[i]);
        o.faults.push_back(*f);
      }
      else if (a == "--shards") o.shards = count(i);
      else if (a == "--chaos") o.chaos = count(i);
      else if (a == "--rings") o.rings = count(i);
      else if (a == "--topology") {
        const auto topo = TopologySpec::parse(need(i));
        if (!topo) throw std::invalid_argument("topology");
        o.rings = topo->rings;
        o.servers = topo->servers;
      } else if (a == "--threads") o.threads = count(i);
      else if (a == "--durable") o.durable = true;
      else if (a == "--kv") o.kv = true;
      else if (a == "--metrics-json") o.metrics_json = need(i);
      else if (a == "--trace-jsonl") o.trace_jsonl = need(i);
      else if (a == "--verbose") o.verbose = true;
      else throw std::invalid_argument(a);
    }
  } catch (const std::exception&) {
    args.error = "usage";
    return args;
  }
  o.seed = args.seeds.front();
  if (o.servers == 0 || o.rings == 0 || o.shards == 0) {
    args.error = "--servers, --rings and --shards take at least 1";
    return args;
  }
  if (o.invocations < 0) {
    args.error = "--invocations takes at least 0";
    return args;
  }
  if (o.shards > 1 && o.style == ReplicationStyle::kPassive) {
    args.error = "--shards > 1 needs --style active or semiactive";
    return args;
  }
  for (const FaultEvent& f : o.faults) {
    if (f.replica >= o.servers) {
      args.error = "fault references replica " + std::to_string(f.replica) +
                   " but there are only " + std::to_string(o.servers);
    }
    if (f.trigger == FaultEvent::Trigger::kEvent && o.rings > 1) {
      args.error = "--fault KIND@evK takes one ring";
    }
  }
  if (o.rings > 1 && (o.durable || o.shards > 1)) {
    args.error = "--rings > 1 does not support --durable/--shards";
  }
  if (o.chaos > 0 && (!o.kv || o.rings > 1 || !o.faults.empty())) {
    args.error = "--chaos needs --kv and one ring, and takes no --fault";
  }
  // Every seed would write the same export path at once.
  if (args.seeds.size() > 1 && (!o.metrics_json.empty() || !o.trace_jsonl.empty())) {
    args.error = "--metrics-json and --trace-jsonl take a single seed";
  }
  return args;
}

const char* scenario_usage() {
  return "  --servers N             server replicas (default 3)\n"
         "  --style S               active | semiactive | passive (default active)\n"
         "  --invocations N         client invocations per ring (default 1000)\n"
         "  --think US              client think time between invocations, us (default 500)\n"
         "  --seed N|A,B|A-B        seed, seed list or inclusive range (default 1); several\n"
         "                          seeds print one JSON line each, in the order given\n"
         "  --loss P                packet loss probability (default 0)\n"
         "  --clock-offset US       max initial hw clock offset, us (default 500000)\n"
         "  --clock-drift PPM       max hw clock drift, ppm (default 50)\n"
         "  --checkpoint-every N    passive checkpoint cadence, requests (default 5)\n"
         "  --drift D               none | mean | reference (drift compensation)\n"
         "  --mean-delay US         mean-delay compensation constant (default 40)\n"
         "  --reference-gain G      reference-bias gain (default 0.1)\n"
         "  --fault KIND@TRIGGER    a fault on ring 0 (repeatable).  KIND: crash:R, recover:R,\n"
         "                          partition:R (cut R off), heal, step:R+D or step:R-D (step\n"
         "                          R's hardware clock by D).  TRIGGER: a time (100ms, 1.5s,\n"
         "                          250us) or evK, after the first K simulator events of the\n"
         "                          client loop (one ring only).  E.g. crash:2@100ms\n"
         "  --chaos N               KV crash fuzz (needs --kv, one ring): each of --invocations\n"
         "                          steps thinks 1-10x --think, then rolls 0..N-1: 0 crashes\n"
         "                          a replica, 1 restarts one, else one open-loop request\n"
         "  --shards N              request-processing shards per replica (default 1)\n"
         "  --rings N               Totem rings; >1 runs the multi-ring archipelago (default 1)\n"
         "  --topology RxS          shorthand for --rings R --servers S (\"4x6\"; bare \"R\" ok)\n"
         "  --threads N             worker threads: across seeds when there are several,\n"
         "                          else across rings; output is identical for any N\n"
         "                          (default CTS_SIM_THREADS or 1)\n"
         "  --durable               stable storage: persist checkpoints to local disk\n"
         "  --kv                    drive the lease KV store instead of the time server\n"
         "  --metrics-json PATH     write per-layer metrics as JSON (single seed only)\n"
         "  --trace-jsonl PATH      write the structured event trace as JSON lines (single seed only)\n"
         "  --verbose               fault narration and the obs summary\n";
}

std::string ScenarioResult::json_line() const {
  std::string j;
  appendf(j,
          "{\"seed\": %llu, \"export_digest\": \"%016llx\", \"replies\": %llu, "
          "\"dropped\": %llu, \"monotonicity_violations\": %llu, \"oracle_violations\": %llu, "
          "\"cross_shard\": %llu, \"reads_after_failure\": %llu, \"crashed_node_activity\": %llu, "
          "\"unrecovered\": %llu, \"consistent\": %s, \"all_alive\": %s, \"cross_ring_ok\": %s, "
          "\"ok\": %s}\n",
          ull(seed), ull(export_digest), ull(replies), ull(dropped), ull(monotonicity_violations),
          ull(oracle_violations), ull(cross_shard), ull(reads_after_failure),
          ull(crashed_node_activity), ull(unrecovered),
          consistent ? "true" : "false", all_alive ? "true" : "false",
          cross_ring_ok ? "true" : "false", ok() ? "true" : "false");
  return j;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return spec.rings > 1 ? run_archipelago(spec) : run_testbed(spec);
}

}  // namespace cts::app
