// perfbench: the benchmark driver for the simulated CTS stack.
//
//   perfbench --workload fig5_rmi|sharded_kv|passive_churn --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// --trace 0 repeats the workload untraced for S host-seconds and prints the
// end-to-end metrics.  --trace 1 cycles through the traced rung and the
// ladder rungs (oracle off, no CTS, one worker) and prints the per-layer
// metrics.  Comment lines start with '#'; the last line is one JSON object.
// Exit code 0 only if every correctness check held; 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RepResult;
using perfbench::Variant;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Metric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "ops/s"},   {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"lat_p50_us", "us"},     {"lat_p99_us", "us"},      {"lat_p999_us", "us"},
    {"answered_frac", "ratio"}, {"gap_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.host_ns_per_event", "ns"},
    {"net.packets_per_op", "packets/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.drop_frac", "ratio"},
    {"totem.tokens_per_op", "tokens/op"},
    {"totem.msgs_per_frame", "msgs/frame"},
    {"totem.retransmits_per_op", "count/op"},
    {"totem.ring_changes", "count"},
    {"totem.window_stalls_per_op", "count/op"},
    {"gcs.order_us_p50", "us"},
    {"gcs.order_us_p99", "us"},
    {"gcs.cancelled_frac", "ratio"},
    {"gcs.fragments_per_op", "count/op"},
    {"cts.rounds_per_op", "rounds/op"},
    {"cts.msgs_per_round", "msgs/round"},
    {"cts.round_us_p50", "us"},
    {"cts.round_us_p99", "us"},
    {"cts.overhead_us", "us"},
    {"cts.host_ns_per_op", "ns"},
    {"repl.ckpt_per_op", "count/op"},
    {"repl.ckpt_bytes", "B"},
    {"repl.state_transfer_ms_p50", "ms"},
    {"repl.replayed_per_recovery", "count"},
    {"storage.writes_per_op", "count/op"},
    {"storage.keys_end", "count"},
    {"orb.outstanding_max", "count"},
    {"orb.timeouts", "count"},
    {"app.exec_host_ns", "ns"},
    {"app.checkpoint_host_us", "us"},
    {"app.restore_host_us", "us"},
    {"gateway.forward_frac", "ratio"},
    {"gateway.remote_lat_us_p50", "us"},
    {"gateway.local_lat_us_p50", "us"},
    {"coord.events_per_epoch", "events/epoch"},
    {"coord.epochs_per_op", "epochs/op"},
    {"xring.frames_per_op", "frames/op"},
    {"coord.speedup", "ratio"},
    {"oracle.checks_per_op", "checks/op"},
    {"oracle.host_frac", "ratio"},
    {"trace.events_per_op", "events/op"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  Workload workload = Workload::kFig5Rmi;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig5_rmi|sharded_kv|passive_churn "
               "--seed N --seconds S --trace 0|1 [--smoke]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      if (!perfbench::parse_workload(v, a.workload)) usage("unknown workload");
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || a.seconds <= 0) usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage("unknown option");
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
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

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host time of a fixed kernel that belongs to the benchmark, not to the
/// program: ordered-map inserts and lookups, then a sort.  The host is
/// shared, and its other tenants slow everything down in episodes lasting
/// seconds to minutes; the kernel slows down with the workload (correlation
/// 0.6-0.9 over 60 s runs), so it measures how fast the host runs right now.
double reference_kernel_s() {
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> m;
  std::vector<std::uint64_t> v;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 1000003] = x;
    v.push_back(x);
  }
  std::uint64_t sum = 0;
  for (std::uint64_t k : v) sum += m.find(k % 1000003)->second;
  std::sort(v.begin(), v.end());
  static volatile std::uint64_t sink = 0;
  sink = sink + sum + v[v.size() / 2];
  return seconds_since(t0);
}

/// The reference kernel's time on a quiet 4-core host of the kind this
/// benchmark was written on.  Host-time metrics are scaled to a host on
/// which the kernel takes this long.
constexpr double kReferenceS = 0.030;

/// Correctness bookkeeping across every rep of the run.
struct Gate {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void take(const RepResult& r, const std::string& rung) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(rung + ": " + f);
  }
  /// Schedule-preserving reps must reproduce the reference fingerprint.
  void same_schedule(const RepResult& ref, const RepResult& r, const std::string& rung) {
    if (r.events != ref.events || r.reply_digest != ref.reply_digest) {
      failures.push_back(rung + ": schedule fingerprint differs from the first rep");
    }
  }
};

void print_fingerprint(Workload w, std::uint64_t seed, const char* rung, const RepResult& r) {
  std::printf("# fingerprint workload=%s seed=%llu rung=%s events=%llu replies=%llu "
              "reply_digest=%016llx\n",
              perfbench::workload_name(w), static_cast<unsigned long long>(seed), rung,
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.answered),
              static_cast<unsigned long long>(r.reply_digest));
}

int emit(const Gate& gate, const Metric* names, std::size_t count,
         const std::map<std::string, double>& values) {
  for (const std::string& f : gate.failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  const bool correct = gate.failures.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gate.attempted);
  out += ", \"failed\": " + std::to_string(gate.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(names[i].name);
    const double v = it != values.end() ? it->second : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += std::string(i ? ", " : "") + "\"" + names[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + names[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

double ops_per_s(const RepResult& r) {
  return r.run_s > 0 ? static_cast<double>(r.answered) / r.run_s : 0.0;
}

/// --trace 0: untraced reps for `seconds`, after one warm-up rep whose
/// (seed-exact) simulated samples every later rep reproduces.
///
/// ops_per_s and setup_s are medians over the reps, each rep scaled by the
/// reference kernel timed just before and just after it: on a 4-core host
/// the scaled medians of 30 s windows agreed within 2-5% while the raw
/// medians moved by 8-20%.  peak_rss_mb is read after the warm-up rep: one
/// full run of the workload, before repetition adds heap fragmentation.
int run_end_to_end(const Args& a) {
  const std::size_t min_reps = a.smoke ? 1 : 3;
  Variant base;
  base.threads = perfbench::default_threads();
  Gate gate;
  const RepResult first = perfbench::run_rep(a.workload, a.seed, a.smoke, base);
  gate.take(first, "warm-up");
  print_fingerprint(a.workload, a.seed, "base", first);
  const double rss_mib = peak_rss_mib();

  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> raw_rate;
  std::vector<double> ref;
  ref.push_back(reference_kernel_s());
  const auto t0 = Clock::now();
  while (setup.size() < min_reps || seconds_since(t0) < a.seconds) {
    const RepResult r = perfbench::run_rep(a.workload, a.seed, a.smoke, base);
    ref.push_back(reference_kernel_s());
    gate.take(r, "rep " + std::to_string(setup.size()));
    gate.same_schedule(first, r, "rep " + std::to_string(setup.size()));
    // > 1 while the host runs slower than the reference host.
    const double slowdown = (ref[ref.size() - 2] + ref.back()) / 2 / kReferenceS;
    setup.push_back(r.setup_s / slowdown);
    raw_rate.push_back(ops_per_s(r));
    rate.push_back(raw_rate.back() * slowdown);
  }

  std::map<std::string, double> m;
  m["ops_per_s"] = perfbench::median(rate);
  m["setup_s"] = perfbench::median(setup);
  m["peak_rss_mb"] = rss_mib;
  m["lat_p50_us"] = perfbench::quantile_grouped(first.lat_us, 0.5);
  m["lat_p99_us"] = perfbench::quantile_grouped(first.lat_us, 0.99);
  m["lat_p999_us"] = perfbench::quantile_grouped(first.lat_us, 0.999);
  m["answered_frac"] =
      first.attempted ? static_cast<double>(first.answered) / static_cast<double>(first.attempted)
                      : 0.0;
  m["gap_ms"] = perfbench::quantile_grouped(first.gap_us, 0.5) / 1000.0;
  std::printf("# reps=%zu threads=%u samples lat=%zu gap=%zu (lat_p999_us has %zu beyond it)\n",
              setup.size(), base.threads, first.lat_us.size(), first.gap_us.size(),
              first.lat_us.size() / 1000);
  std::printf("# unscaled ops_per_s per rep: min=%.0f median=%.0f max=%.0f; reference kernel "
              "min=%.4f median=%.4f max=%.4f s\n",
              perfbench::quantile(raw_rate, 0), perfbench::median(raw_rate),
              perfbench::quantile(raw_rate, 1), perfbench::quantile(ref, 0),
              perfbench::median(ref), perfbench::quantile(ref, 1));
  return emit(gate, kEndToEnd, std::size(kEndToEnd), m);
}

/// --trace 1: round-robin over the ladder so host drift hits every rung alike.
int run_traced(const Args& a) {
  struct Rung {
    const char* name;
    Variant v;
    bool same_schedule;
    std::vector<RepResult> reps;  // host fields; simulated samples kept for the first only
  };
  const unsigned workers = perfbench::default_threads();
  std::vector<Rung> rungs;
  Variant base;
  base.threads = workers;
  Variant traced = base;
  traced.traced = true;
  Variant no_oracle = base;
  no_oracle.oracle = false;
  rungs.push_back({"base", base, true, {}});
  rungs.push_back({"traced", traced, true, {}});
  rungs.push_back({"oracle_off", no_oracle, true, {}});
  if (a.workload == Workload::kFig5Rmi) {
    Variant no_cts = base;
    no_cts.cts = false;
    rungs.push_back({"no_cts", no_cts, false, {}});
  }
  if (a.workload == Workload::kShardedKv) {
    Variant one = base;
    one.threads = 1;
    rungs.push_back({"one_worker", one, true, {}});
  }

  Gate gate;
  const auto t0 = Clock::now();
  std::size_t rounds = 0;
  while (rounds < 1 || seconds_since(t0) < a.seconds) {
    for (Rung& g : rungs) {
      RepResult r = perfbench::run_rep(a.workload, a.seed, a.smoke, g.v);
      gate.take(r, g.name);
      const RepResult& ref = g.same_schedule ? (rungs[0].reps.empty() ? r : rungs[0].reps[0])
                                             : (g.reps.empty() ? r : g.reps[0]);
      gate.same_schedule(ref, r, g.name);
      if (!g.reps.empty()) {
        r.lat_us.clear();
        r.gap_us.clear();
      }
      g.reps.push_back(std::move(r));
    }
    ++rounds;
  }

  auto median_of = [](const Rung& g, auto field) {
    std::vector<double> v;
    for (const RepResult& r : g.reps) v.push_back(field(r));
    return perfbench::median(v);
  };
  // Each rung's fastest rep, for the same reason ops_per_s uses it.
  auto fastest_s = [](const Rung& g) {
    double best = g.reps[0].run_s;
    for (const RepResult& r : g.reps) best = std::min(best, r.run_s);
    return best;
  };
  const Rung& b = rungs[0];
  const Rung& t = rungs[1];
  const Rung& o = rungs[2];
  print_fingerprint(a.workload, a.seed, "base", b.reps[0]);

  // Simulated and count metrics come from the first traced rep (every rep
  // of a rung has the same schedule); host-time metrics from all reps.
  std::map<std::string, double> m = t.reps[0].layer;
  for (const char* k : {"app.exec_host_ns", "app.checkpoint_host_us", "app.restore_host_us"}) {
    m[k] = median_of(t, [k](const RepResult& r) { return r.layer.at(k); });
  }
  const double base_s = fastest_s(b);
  m["sim.host_ns_per_event"] = base_s * 1e9 / static_cast<double>(b.reps[0].run_events);
  m["trace.overhead_frac"] = fastest_s(t) / base_s - 1.0;
  m["oracle.host_frac"] = base_s / fastest_s(o) - 1.0;
  for (const Rung& g : rungs) {
    if (std::string_view(g.name) == "no_cts") {
      print_fingerprint(a.workload, a.seed, g.name, g.reps[0]);
      m["cts.overhead_us"] = perfbench::quantile_grouped(b.reps[0].lat_us, 0.5) -
                             perfbench::quantile_grouped(g.reps[0].lat_us, 0.5);
      m["cts.host_ns_per_op"] =
          (base_s - fastest_s(g)) * 1e9 / static_cast<double>(b.reps[0].answered);
    } else if (std::string_view(g.name) == "one_worker") {
      m["coord.speedup"] = fastest_s(g) / base_s;
    }
  }
  std::printf("# rounds=%zu threads=%u trace_events_per_op=%.3f\n", rounds, workers,
              m["trace.events_per_op"]);
  return emit(gate, kPerLayer, std::size(kPerLayer), m);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // The correctness gate needs the ordering oracle armed in every ring.
  if (const char* env = std::getenv("CTS_ORACLE")) {
    const std::string_view v(env);
    if (v == "off" || v == "0") {
      std::fprintf(stderr, "perfbench: refusing to run with CTS_ORACLE=%s\n", env);
      return 2;
    }
  }
  std::printf("# host nproc=%u compiler=\"%s\" build=%s cpu=\"%s\"\n",
              std::thread::hardware_concurrency(), compiler().c_str(), PERFBENCH_BUILD_TYPE,
              cpu_model().c_str());
  std::fflush(stdout);
  return a.trace ? run_traced(a) : run_end_to_end(a);
}
