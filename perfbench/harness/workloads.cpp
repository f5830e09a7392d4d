#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/archipelago.hpp"
#include "app/kv_store.hpp"
#include "app/testbed.hpp"
#include "app/time_server.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace cts;
using app::Archipelago;
using app::KvReply;
using app::KvStatus;
using app::Testbed;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// --- Workload shape -----------------------------------------------------------
//
// Sizes are fixed per workload so that every simulated metric is a pure
// function of the seed.  Each full-size rep has at least 10,000 answered ops,
// so lat_p999_us has ten samples beyond it.

struct Sizes {
  int fig5_rmis;
  int kv_ops_per_ring;
  int churn_requests;  // a multiple of the checkpoint cadence
};
Sizes sizes(bool smoke) { return smoke ? Sizes{400, 40, 1500} : Sizes{20000, 1000, 12000}; }

constexpr std::size_t kRings = 16;
constexpr std::size_t kReplicas = 3;
constexpr std::uint64_t kKeys = 64;
constexpr Micros kKvThinkUs = 500;
// Leases outlive every run: no lease expires while requests flow.  With a
// 10 ms lease the replicas of an active ring can diverge (see README,
// "Known defects"): an expiry applied by the group-timer thread lands at a
// different point of the request stream at each replica, and a PUT reads
// the clock only when a lease is still set.
constexpr Micros kLeaseTtlUs = 60'000'000;
// passive_churn: one request every 800 us (about half the ring's measured
// closed-loop capacity), each with a 2 s timeout; a backup crashes every
// 250 ms and restarts 120 ms later, alternating between backups 1 and 2.
constexpr Micros kChurnPeriodUs = 800;
constexpr Micros kChurnTimeoutUs = 2'000'000;
constexpr Micros kCrashEveryUs = 250'000;
constexpr Micros kDownUs = 120'000;
constexpr Micros kChurnLeadUs = 300'000;
constexpr std::uint32_t kCheckpointEvery = 10;
// Probe spacing for gap_ms on the workloads without crashes.
constexpr Micros kProbeEveryUs = 1'000;
// The traced run drains the TraceLog after every slice of this much
// simulated time, well before its 2^19-event cap.
constexpr Micros kSliceUs = 50'000;
// Simulated-time guard against a wedged run.
constexpr Micros kRunLimitUs = 600'000'000;

struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::span<const std::uint8_t> bytes) {
    for (std::uint8_t c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

// --- Client-side record -------------------------------------------------------

/// Everything one client observed.  Touched only from its own ring's
/// simulator, so per-ring logs need no locking under island workers.
struct ClientLog {
  explicit ClientLog(std::size_t rings)
      : last_clock(rings, std::numeric_limits<Micros>::min()) {}

  void sent(Micros at) {
    if (first_send == kNoTime) first_send = at;
    ++attempted;
    outstanding_max = std::max(outstanding_max, ++outstanding);
  }
  /// `due` is when the request was due to be sent (open loop) or was sent.
  void answered_at(Micros due, Micros now, const Bytes& reply) {
    ++answered;
    --outstanding;
    lat_us.push_back(static_cast<double>(now - due));
    done_at.push_back(now);
    digest.add(std::span<const std::uint8_t>(reply.data(), reply.size()));
  }
  void timed_out() {
    ++failed;
    --outstanding;
  }
  /// A group-clock reading from ring `ring`: must exceed this client's
  /// previous reading from the same ring.
  void clock(std::size_t ring, Micros v) {
    ++clock_readings;
    if (v <= last_clock[ring] && clock_regressions++ == 0) {
      first_regression = "ring " + std::to_string(ring) + " read " + std::to_string(v) +
                         " us after " + std::to_string(last_clock[ring]) + " us (op " +
                         std::to_string(attempted) + ")";
    }
    last_clock[ring] = v;
  }

  std::vector<double> lat_us;
  std::vector<double> local_lat_us;
  std::vector<double> remote_lat_us;
  std::vector<Micros> done_at;
  Micros first_send = kNoTime;
  Digest digest;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t outstanding_max = 0;
  std::vector<Micros> last_clock;
  std::uint64_t clock_readings = 0;
  std::uint64_t clock_regressions = 0;
  std::string first_regression;
};

/// Time from each probe instant to the first reply completed after it.
void probe_gaps(std::vector<Micros> done, const std::vector<Micros>& probes,
                std::vector<double>& out) {
  std::sort(done.begin(), done.end());
  for (Micros p : probes) {
    const auto it = std::upper_bound(done.begin(), done.end(), p);
    if (it != done.end()) out.push_back(static_cast<double>(*it - p));
  }
}

std::vector<Micros> uniform_probes(const ClientLog& log) {
  std::vector<Micros> out;
  if (log.done_at.empty()) return out;
  const Micros last = *std::max_element(log.done_at.begin(), log.done_at.end());
  for (Micros p = log.first_send; p < last; p += kProbeEveryUs) out.push_back(p);
  return out;
}

// --- Traced run: TraceLog join ------------------------------------------------

/// Joins one ring's drained trace with the client's send times and the
/// round observers' completion times.  Splits an RMI into request ordering
/// (client send -> first delivery at a server), the CCS round (first start
/// at any replica -> first completion at any replica) and the rest.
class TraceJoin {
 public:
  void note_send(MsgSeqNum seq, Micros at) { sends_[seq] = at; }
  void note_round_done(std::uint32_t thread, MsgSeqNum round, Micros at) {
    Round& r = rounds_[key(thread, round)];
    if (r.done == kNoTime || at < r.done) r.done = at;
  }

  /// Consume and clear the log.  `count` adds its events to the per-op
  /// trace volume (measured phase only).
  void drain(obs::TraceLog& log, bool count) {
    if (count) events += log.recorded();
    dropped += log.dropped();
    for (const obs::TraceEvent& e : log.events()) {
      switch (e.kind) {
        case obs::EventKind::kGcsDeliver:
          // a = msg type, b = seq, c = connection; node 0 is the client.
          if (e.node != 0 && e.a == static_cast<std::int64_t>(gcs::MsgType::kUserRequest) &&
              e.c == static_cast<std::int64_t>(app::TestbedIds::kRequestConn.value)) {
            const auto it = sends_.find(static_cast<MsgSeqNum>(e.b));
            if (it != sends_.end()) {
              order_us.push_back(static_cast<double>(e.at - it->second));
              sends_.erase(it);
            }
          }
          break;
        case obs::EventKind::kCcsRoundStart: {  // a = thread, b = round
          Round& r = rounds_[key(static_cast<std::uint32_t>(e.a), static_cast<MsgSeqNum>(e.b))];
          if (r.start == kNoTime || e.at < r.start) r.start = e.at;
          break;
        }
        case obs::EventKind::kRecoveryStart:
          recovering_[e.node] = e.at;
          break;
        case obs::EventKind::kRecoveryComplete: {  // a = requests queued
          const auto it = recovering_.find(e.node);
          if (it != recovering_.end()) {
            transfer_us.push_back(static_cast<double>(e.at - it->second));
            recovering_.erase(it);
          }
          replayed.push_back(static_cast<double>(e.a));
          break;
        }
        case obs::EventKind::kCheckpointTaken:  // a = payload bytes
          ckpt_bytes.push_back(static_cast<double>(e.a));
          break;
        default:
          break;
      }
    }
    log.clear();
  }

  /// Close the round join (call once, after the last drain).
  void finish() {
    for (const auto& [k, r] : rounds_) {
      if (r.start != kNoTime && r.done != kNoTime && r.done >= r.start) {
        round_us.push_back(static_cast<double>(r.done - r.start));
      }
    }
    rounds_.clear();
  }

  std::vector<double> order_us;
  std::vector<double> round_us;
  std::vector<double> transfer_us;
  std::vector<double> replayed;
  std::vector<double> ckpt_bytes;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;

 private:
  struct Round {
    Micros start = kNoTime;
    Micros done = kNoTime;
  };
  static std::uint64_t key(std::uint32_t thread, MsgSeqNum round) {
    return (static_cast<std::uint64_t>(thread) << 40) ^ round;
  }
  std::unordered_map<MsgSeqNum, Micros> sends_;
  std::unordered_map<std::uint64_t, Round> rounds_;
  std::unordered_map<std::uint32_t, Micros> recovering_;
};

void observe_rounds(Testbed& tb, std::uint32_t s, TraceJoin& join) {
  tb.server(s).time_service().set_round_observer(
      [&join, &sim = tb.sim()](const ccs::RoundResult& r) {
        join.note_round_done(r.thread.value, r.round, sim.now());
      });
}

// --- Traced run: Replica decorator ------------------------------------------

struct AppTimes {
  std::uint64_t exec_ns = 0;
  std::uint64_t execs = 0;
  std::uint64_t checkpoint_ns = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restore_ns = 0;
  std::uint64_t restores = 0;
};

/// Host time spent inside the application's own calls.  handle_request is
/// timed for its synchronous part: up to the first clock round it awaits,
/// or the whole request (reply hand-off included) when it reads no clock.
class TimedReplica final : public replication::Replica {
 public:
  TimedReplica(std::unique_ptr<replication::Replica> inner, AppTimes& t)
      : inner_(std::move(inner)), t_(t) {}

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override {
    const auto t0 = Clock::now();
    inner_->handle_request(request, std::move(done));
    t_.exec_ns += ns_since(t0);
    ++t_.execs;
  }
  [[nodiscard]] Bytes checkpoint() const override {
    const auto t0 = Clock::now();
    Bytes out = inner_->checkpoint();
    t_.checkpoint_ns += ns_since(t0);
    ++t_.checkpoints;
    return out;
  }
  void restore(const Bytes& state) override {
    const auto t0 = Clock::now();
    inner_->restore(state);
    t_.restore_ns += ns_since(t0);
    ++t_.restores;
  }

  replication::Replica& inner() { return *inner_; }

 private:
  std::unique_ptr<replication::Replica> inner_;
  AppTimes& t_;
};

replication::ReplicaFactory timed(replication::ReplicaFactory f, AppTimes& t) {
  return [f = std::move(f), &t](replication::ReplicaContext& ctx) {
    return std::make_unique<TimedReplica>(f(ctx), t);
  };
}

replication::Replica& unwrap(replication::Replica& r) {
  auto* t = dynamic_cast<TimedReplica*>(&r);
  return t != nullptr ? t->inner() : r;
}

// --- Public per-layer counters ----------------------------------------------

enum Count : std::size_t {
  kPackets,
  kBytes,
  kDropped,
  kTokensNode0,
  kTotemMsgs,
  kTotemFrames,
  kRetransmits,
  kRingChangesNode0,
  kWindowStalls,
  kGcsAttempted,
  kGcsCancelled,
  kGcsFragments,
  kCcsOnWire,
  kRounds,
  kCheckpoints,
  kOracleChecks,
  kEvents,
  kCountN,
};
using Counts = std::array<double, kCountN>;

Counts& operator+=(Counts& a, const Counts& b) {
  for (std::size_t i = 0; i < kCountN; ++i) a[i] += b[i];
  return a;
}
Counts operator-(Counts a, const Counts& b) {
  for (std::size_t i = 0; i < kCountN; ++i) a[i] -= b[i];
  return a;
}

/// A GCS endpoint's totals.  Restarts rebuild the endpoint, so the churn
/// workload banks an endpoint's totals before it is replaced.
Counts gcs_counts(const gcs::GcsStats& st) {
  Counts c{};
  for (std::size_t t = 0; t < 16; ++t) {
    c[kGcsAttempted] += static_cast<double>(st.sent_attempted[t]);
    c[kGcsCancelled] += static_cast<double>(st.sent_cancelled[t]);
  }
  c[kGcsFragments] = static_cast<double>(st.fragments_sent);
  c[kCcsOnWire] = static_cast<double>(st.on_wire(gcs::MsgType::kCcs));
  return c;
}

Counts read_counts(Testbed& tb) {
  Counts c{};
  const net::NetworkStats& ns = tb.net().stats();
  c[kPackets] = static_cast<double>(ns.packets_sent);
  c[kBytes] = static_cast<double>(ns.bytes_sent);
  c[kDropped] = static_cast<double>(ns.packets_dropped);
  const auto nodes = static_cast<std::uint32_t>(tb.server_count() + 1);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const totem::TotemStats& ts = tb.totem_of(n).stats();
    c[kTotemMsgs] += static_cast<double>(ts.msgs_multicast);
    c[kTotemFrames] += static_cast<double>(ts.batch_frames_sent);
    c[kRetransmits] += static_cast<double>(ts.msgs_retransmitted + ts.token_retransmissions);
    c[kWindowStalls] += static_cast<double>(ts.window_stalls);
    if (n == 0) {
      c[kTokensNode0] = static_cast<double>(ts.tokens_received);
      c[kRingChangesNode0] = static_cast<double>(ts.membership_changes);
    }
    c += gcs_counts(tb.gcs_of(n).stats());
  }
  std::uint64_t rounds = 0;
  for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
    rounds = std::max(rounds, tb.server(s).time_service().stats().rounds_completed);
  }
  c[kRounds] = static_cast<double>(rounds);
  c[kCheckpoints] = static_cast<double>(tb.recorder().counter("repl.checkpoints_taken").value);
  if (const auto* o = tb.recorder().oracle()) c[kOracleChecks] = static_cast<double>(o->checks_run());
  c[kEvents] = static_cast<double>(tb.sim().events_executed());
  return c;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void layer_from_counts(RepResult& r, const Counts& d, double ops) {
  auto& L = r.layer;
  L["sim.events_per_op"] = per(d[kEvents], ops);
  L["net.packets_per_op"] = per(d[kPackets], ops);
  L["net.bytes_per_op"] = per(d[kBytes], ops);
  L["net.drop_frac"] = per(d[kDropped], d[kPackets]);
  L["totem.tokens_per_op"] = per(d[kTokensNode0], ops);
  L["totem.msgs_per_frame"] = per(d[kTotemMsgs], d[kTotemFrames]);
  L["totem.retransmits_per_op"] = per(d[kRetransmits], ops);
  L["totem.ring_changes"] = d[kRingChangesNode0];
  L["totem.window_stalls_per_op"] = per(d[kWindowStalls], ops);
  L["gcs.cancelled_frac"] = per(d[kGcsCancelled], d[kGcsAttempted]);
  L["gcs.fragments_per_op"] = per(d[kGcsFragments], ops);
  L["cts.rounds_per_op"] = per(d[kRounds], ops);
  L["cts.msgs_per_round"] = per(d[kCcsOnWire], d[kRounds]);
  L["repl.ckpt_per_op"] = per(d[kCheckpoints], ops);
  L["oracle.checks_per_op"] = per(d[kOracleChecks], ops);
}

void layer_from_trace(RepResult& r, std::vector<TraceJoin>& joins, std::vector<AppTimes>& apps,
                      double ops) {
  TraceJoin all;
  AppTimes t;
  for (TraceJoin& j : joins) {
    j.finish();
    auto cat = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    cat(all.order_us, j.order_us);
    cat(all.round_us, j.round_us);
    cat(all.transfer_us, j.transfer_us);
    cat(all.replayed, j.replayed);
    cat(all.ckpt_bytes, j.ckpt_bytes);
    all.events += j.events;
    all.dropped += j.dropped;
  }
  for (const AppTimes& a : apps) {
    t.exec_ns += a.exec_ns;
    t.execs += a.execs;
    t.checkpoint_ns += a.checkpoint_ns;
    t.checkpoints += a.checkpoints;
    t.restore_ns += a.restore_ns;
    t.restores += a.restores;
  }
  if (all.dropped != 0) r.failures.push_back("trace log dropped events between drains");
  auto& L = r.layer;
  L["gcs.order_us_p50"] = quantile_grouped(all.order_us, 0.5);
  L["gcs.order_us_p99"] = quantile_grouped(all.order_us, 0.99);
  L["cts.round_us_p50"] = quantile_grouped(all.round_us, 0.5);
  L["cts.round_us_p99"] = quantile_grouped(all.round_us, 0.99);
  L["repl.ckpt_bytes"] = mean(all.ckpt_bytes);
  L["repl.state_transfer_ms_p50"] = quantile_grouped(all.transfer_us, 0.5) / 1000.0;
  L["repl.replayed_per_recovery"] = mean(all.replayed);
  L["trace.events_per_op"] = per(static_cast<double>(all.events), ops);
  L["app.exec_host_ns"] = per(static_cast<double>(t.exec_ns), static_cast<double>(t.execs));
  L["app.checkpoint_host_us"] =
      per(static_cast<double>(t.checkpoint_ns) / 1000.0, static_cast<double>(t.checkpoints));
  L["app.restore_host_us"] =
      per(static_cast<double>(t.restore_ns) / 1000.0, static_cast<double>(t.restores));
}

// --- Checks shared by the workloads -----------------------------------------

void check_ring(Testbed& tb, const std::string& where, const Variant& v, RepResult& r) {
  obs::OrderingOracle* o = tb.recorder().oracle();
  if (v.oracle && o == nullptr) r.failures.push_back(where + ": oracle is not armed");
  if (o != nullptr && o->violations() != 0) r.failures.push_back(where + ": oracle.violations != 0");
  if (o != nullptr && o->cross_shard_violations() != 0) {
    r.failures.push_back(where + ": oracle.cross_shard != 0");
  }
  if (tb.recorder().counter("repl.checkpoints_rejected").value != 0) {
    r.failures.push_back(where + ": repl.checkpoints_rejected != 0");
  }
}

void check_client(const ClientLog& log, const std::string& where, bool clock_replies,
                  RepResult& r) {
  if (log.answered + log.failed != log.attempted || log.outstanding != 0) {
    r.failures.push_back(where + ": an op was neither answered nor counted as failed");
  }
  if (clock_replies && log.clock_readings == 0) {
    r.failures.push_back(where + ": no group-clock reading in any reply");
  }
  if (log.clock_regressions != 0) {
    r.failures.push_back(where + ": group-clock replies not strictly increasing (" +
                         std::to_string(log.clock_regressions) + " times; first: " +
                         log.first_regression + ")");
  }
}

/// Fold the client logs into the rep's end-to-end samples.
void collect_clients(RepResult& r, const std::vector<ClientLog>& logs,
                     const std::vector<Micros>* crash_probes) {
  Digest d;
  for (const ClientLog& log : logs) {
    r.attempted += log.attempted;
    r.answered += log.answered;
    r.failed += log.failed;
    r.lat_us.insert(r.lat_us.end(), log.lat_us.begin(), log.lat_us.end());
    probe_gaps(log.done_at, crash_probes != nullptr ? *crash_probes : uniform_probes(log),
               r.gap_us);
    d.add(log.digest.h);
  }
  r.reply_digest = d.h;
}

/// "k17", "v4": key and value names.  (Built by appending: GCC 12 warns
/// falsely on `"k" + std::to_string(n)` at -O3.)
std::string tagged(char tag, std::uint64_t n) {
  std::string s(1, tag);
  s += std::to_string(n);
  return s;
}

/// put / get / acquire in equal shares.  Writers and lease takers are one of
/// four owners, so a PUT succeeds when its owner holds the key's lease.
Bytes kv_request(Rng& rng, const std::string& key, int i, bool& acquire) {
  switch (rng.below(3)) {
    case 0:
      acquire = false;
      return app::kv_put(key, tagged('v', static_cast<std::uint64_t>(i)), 1 + rng.below(4));
    case 1:
      acquire = false;
      return app::kv_get(key);
    default:
      acquire = true;
      return app::kv_acquire(key, 1 + rng.below(4), kLeaseTtlUs);
  }
}

/// The group-clock reading an ACQUIRE grant carries (expiry = now + ttl).
void note_grant(ClientLog& log, std::size_t ring, const Bytes& reply) {
  const KvReply kr = KvReply::parse(reply);
  if (kr.status == KvStatus::kOk) log.clock(ring, kr.lease_expiry - kLeaseTtlUs);
}

// --- fig5_rmi -----------------------------------------------------------------

sim::Task fig5_client(Testbed& tb, int n, bool clock_replies, ClientLog& log, TraceJoin* join,
                      bool& done) {
  for (int i = 0; i < n; ++i) {
    const Micros t0 = tb.sim().now();
    if (join != nullptr) join->note_send(tb.client().invocations() + 1, t0);
    log.sent(t0);
    const Bytes reply = co_await tb.client().call(app::make_get_time_request());
    log.answered_at(t0, tb.sim().now(), reply);
    if (clock_replies) {
      BytesReader rd(reply);
      const Micros sec = rd.i64();
      const Micros usec = rd.i64();
      log.clock(0, sec * 1'000'000 + usec);
    }
  }
  done = true;
}

RepResult run_fig5(std::uint64_t seed, const Sizes& z, const Variant& v) {
  RepResult r;
  std::vector<AppTimes> apps(1);
  std::vector<TraceJoin> joins(1);
  std::vector<ClientLog> logs(1, ClientLog(1));

  const auto t_setup = Clock::now();
  app::TestbedConfig cfg;
  cfg.servers = kReplicas;
  cfg.seed = seed;
  cfg.oracle = v.oracle;
  app::TimeServerApp::Options topt;
  topt.delay_seed = seed;
  cfg.factory = v.cts ? app::time_server_factory(topt) : app::local_time_server_factory(topt);
  if (v.traced) cfg.factory = timed(cfg.factory, apps[0]);
  Testbed tb(cfg);
  tb.start();
  r.setup_s = seconds_since(t_setup);

  TraceJoin* join = v.traced ? &joins[0] : nullptr;
  if (join != nullptr) {
    for (std::uint32_t s = 0; s < kReplicas; ++s) observe_rounds(tb, s, *join);
    join->drain(tb.recorder().trace(), false);
  }
  const Counts before = read_counts(tb);
  bool done = false;
  const auto t_run = Clock::now();
  fig5_client(tb, z.fig5_rmis, v.cts, logs[0], join, done);
  const Micros limit = tb.sim().now() + kRunLimitUs;
  while (!done && tb.sim().now() < limit) {
    tb.sim().run_until(tb.sim().now() + kSliceUs);
    if (join != nullptr) join->drain(tb.recorder().trace(), true);
  }
  r.run_s = seconds_since(t_run);
  const Counts delta = read_counts(tb) - before;
  r.run_events = static_cast<std::uint64_t>(delta[kEvents]);
  if (!done) r.failures.push_back("fig5_rmi: client did not finish");

  tb.sim().run_for(20'000);
  if (join != nullptr) join->drain(tb.recorder().trace(), false);
  r.events = tb.sim().events_executed();

  collect_clients(r, logs, nullptr);
  check_client(logs[0], "fig5_rmi", v.cts, r);
  check_ring(tb, "fig5_rmi", v, r);
  if (v.cts) {
    const auto& h0 = static_cast<app::TimeServerApp&>(unwrap(tb.server(0).app())).time_history();
    if (h0.empty()) r.failures.push_back("fig5_rmi: empty time history");
    for (std::uint32_t s = 1; s < kReplicas; ++s) {
      if (static_cast<app::TimeServerApp&>(unwrap(tb.server(s).app())).time_history() != h0) {
        r.failures.push_back("fig5_rmi: replica time histories differ");
      }
    }
  }

  const auto ops = static_cast<double>(r.answered);
  layer_from_counts(r, delta, ops);
  r.layer["orb.outstanding_max"] = static_cast<double>(logs[0].outstanding_max);
  r.layer["orb.timeouts"] = static_cast<double>(tb.client().timeouts());
  if (v.traced) layer_from_trace(r, joins, apps, ops);
  return r;
}

// --- sharded_kv ---------------------------------------------------------------

sim::Task kv_client(Archipelago& ar, std::size_t ring, int n, std::uint64_t seed, ClientLog& log,
                    TraceJoin* join, std::uint8_t& done) {
  const app::ShardMap& map = ar.shard_map();
  Testbed& tb = ar.ring(ring);
  Rng rng(seed * 17 + 3 + ring * 101);
  for (int i = 0; i < n; ++i) {
    co_await tb.sim().delay(kKvThinkUs);
    // Two requests in five name a key another ring owns and go through the
    // gateway.  Not one in two: local and remote latencies form two modes
    // 1 ms apart, and at an even split the median jumps between them from
    // seed to seed.
    const bool remote = rng.below(5) < 2;
    std::string key;
    std::size_t owner = 0;
    do {
      key = tagged('k', rng.below(kKeys));
      owner = map.shard_of_key(key);
    } while ((owner != ring) != remote);
    bool acquire = false;
    Bytes req = kv_request(rng, key, i, acquire);
    const Micros t0 = tb.sim().now();
    // A local request reaches this ring's RmiClient inside route(), so it
    // takes the client's next sequence number.
    if (join != nullptr && !remote) join->note_send(tb.client().invocations() + 1, t0);
    log.sent(t0);
    const Bytes reply = co_await ar.router(ring).call(std::move(req));
    const Micros now = tb.sim().now();
    log.answered_at(t0, now, reply);
    (remote ? log.remote_lat_us : log.local_lat_us).push_back(static_cast<double>(now - t0));
    if (acquire) note_grant(log, owner, reply);
  }
  done = 1;
}

RepResult run_sharded(std::uint64_t seed, const Sizes& z, const Variant& v) {
  RepResult r;
  std::vector<AppTimes> apps(kRings);
  std::vector<TraceJoin> joins(kRings);
  std::vector<ClientLog> logs(kRings, ClientLog(kRings));

  const auto t_setup = Clock::now();
  app::ArchipelagoConfig acfg;
  acfg.topo = app::TopologySpec{kRings, kReplicas, /*with_client=*/true};
  acfg.seed = seed;
  acfg.threads = v.threads;
  acfg.oracle = v.oracle;
  acfg.app = [&apps, traced = v.traced](const app::ShardMap& map, std::size_t ring) {
    app::KvStoreApp::Options o;
    o.shard_map = &map;
    o.ring = ring;
    replication::ReplicaFactory f = app::kv_store_factory(o);
    return traced ? timed(std::move(f), apps[ring]) : f;
  };
  Archipelago ar(acfg);
  ar.start();
  r.setup_s = seconds_since(t_setup);

  auto drain_all = [&](bool count) {
    for (std::size_t i = 0; i < kRings; ++i) joins[i].drain(ar.ring(i).recorder().trace(), count);
  };
  if (v.traced) {
    for (std::size_t i = 0; i < kRings; ++i) {
      for (std::uint32_t s = 0; s < kReplicas; ++s) observe_rounds(ar.ring(i), s, joins[i]);
    }
    drain_all(false);
  }
  auto counts = [&] {
    Counts c{};
    for (std::size_t i = 0; i < kRings; ++i) c += read_counts(ar.ring(i));
    return c;
  };
  double forwards_before = 0;
  for (std::size_t i = 0; i < kRings; ++i) {
    forwards_before += static_cast<double>(ar.ring(i).recorder().counter("gateway.forwards").value);
  }
  const Counts before = counts();
  const sim::IslandCoordinator::Stats coord_before = ar.coordinator().stats();
  const auto frames_before = static_cast<double>(ar.link().total_stats().frames_sent);

  std::vector<std::uint8_t> done(kRings, 0);
  const auto t_run = Clock::now();
  for (std::size_t i = 0; i < kRings; ++i) {
    kv_client(ar, i, z.kv_ops_per_ring, seed, logs[i], v.traced ? &joins[i] : nullptr, done[i]);
  }
  auto all_done = [&] { return std::all_of(done.begin(), done.end(), [](auto d) { return d != 0; }); };
  const Micros limit = ar.now() + kRunLimitUs;
  while (!all_done() && ar.now() < limit) {
    ar.run_until(ar.now() + kSliceUs);
    if (v.traced) drain_all(true);
  }
  r.run_s = seconds_since(t_run);
  const Counts delta = counts() - before;
  const sim::IslandCoordinator::Stats coord = ar.coordinator().stats();
  const double frames = static_cast<double>(ar.link().total_stats().frames_sent) - frames_before;
  r.run_events = static_cast<std::uint64_t>(delta[kEvents]);
  if (!all_done()) r.failures.push_back("sharded_kv: a client did not finish");

  // Let the slower replicas finish the last requests before comparing them.
  ar.run_for(100'000);
  if (v.traced) drain_all(false);
  double forwards = -forwards_before;
  for (std::size_t i = 0; i < kRings; ++i) {
    Testbed& tb = ar.ring(i);
    r.events += tb.sim().events_executed();
    forwards += static_cast<double>(tb.recorder().counter("gateway.forwards").value);
    const std::string where = "sharded_kv ring " + std::to_string(i);
    check_client(logs[i], where, false, r);
    check_ring(tb, where, v, r);
    const auto& a0 = static_cast<app::KvStoreApp&>(unwrap(tb.server(0).app()));
    for (std::uint32_t s = 1; s < kReplicas; ++s) {
      const auto& as = static_cast<app::KvStoreApp&>(unwrap(tb.server(s).app()));
      if (as.state_digest() != a0.state_digest()) {
        r.failures.push_back(where + ": replica " + std::to_string(s) +
                             " state digest differs from replica 0 (keys " +
                             std::to_string(as.key_count()) + " vs " +
                             std::to_string(a0.key_count()) + ", leases expired " +
                             std::to_string(as.leases_expired()) + " vs " +
                             std::to_string(a0.leases_expired()) + ")");
      }
    }
  }
  std::uint64_t grants = 0;
  for (const ClientLog& log : logs) grants += log.clock_readings;
  if (grants == 0) r.failures.push_back("sharded_kv: no lease grant in any reply");
  if (forwards <= 0) r.failures.push_back("sharded_kv: the gateway forwarded nothing");
  collect_clients(r, logs, nullptr);

  const auto ops = static_cast<double>(r.answered);
  layer_from_counts(r, delta, ops);
  std::vector<double> local;
  std::vector<double> remote;
  std::uint64_t outstanding_max = 0;
  for (const ClientLog& log : logs) {
    local.insert(local.end(), log.local_lat_us.begin(), log.local_lat_us.end());
    remote.insert(remote.end(), log.remote_lat_us.begin(), log.remote_lat_us.end());
    outstanding_max = std::max(outstanding_max, log.outstanding_max);
  }
  auto& L = r.layer;
  L["gateway.forward_frac"] = per(forwards, ops);
  L["gateway.local_lat_us_p50"] = quantile_grouped(local, 0.5);
  L["gateway.remote_lat_us_p50"] = quantile_grouped(remote, 0.5);
  const auto epochs = static_cast<double>(coord.epochs - coord_before.epochs);
  L["coord.events_per_epoch"] =
      per(static_cast<double>(coord.events_executed - coord_before.events_executed), epochs);
  L["coord.epochs_per_op"] = per(epochs, ops);
  L["xring.frames_per_op"] = per(frames, ops);
  L["orb.outstanding_max"] = static_cast<double>(outstanding_max);
  if (v.traced) layer_from_trace(r, joins, apps, ops);
  return r;
}

// --- passive_churn ------------------------------------------------------------

/// Open loop: request i is due at start + (i + 1) * period whether or not
/// earlier ones were answered.  Latency counts from the due time.
sim::Task churn_client(Testbed& tb, int n, std::uint64_t seed, ClientLog& log, TraceJoin* join) {
  Rng rng(seed * 17 + 3);
  const Micros start = tb.sim().now();
  for (int i = 0; i < n; ++i) {
    const Micros due = start + (i + 1) * kChurnPeriodUs;
    co_await tb.sim().delay(due - tb.sim().now());
    const std::string key = tagged('k', rng.below(kKeys));
    bool acquire = false;
    Bytes req = kv_request(rng, key, i, acquire);
    if (join != nullptr) join->note_send(tb.client().invocations() + 1, due);
    log.sent(due);
    tb.client().invoke_complete(
        std::move(req),
        [&log, &tb, due, acquire](const Bytes* reply) {
          if (reply == nullptr) {
            log.timed_out();
            return;
          }
          log.answered_at(due, tb.sim().now(), *reply);
          if (acquire) note_grant(log, 0, *reply);
        },
        kChurnTimeoutUs);
  }
}

RepResult run_churn(std::uint64_t seed, const Sizes& z, const Variant& v) {
  RepResult r;
  std::vector<AppTimes> apps(1);
  std::vector<TraceJoin> joins(1);
  std::vector<ClientLog> logs(1, ClientLog(1));

  const auto t_setup = Clock::now();
  app::TestbedConfig cfg;
  cfg.servers = kReplicas;
  cfg.style = replication::ReplicationStyle::kPassive;
  cfg.seed = seed;
  cfg.oracle = v.oracle;
  cfg.checkpoint_every = kCheckpointEvery;
  cfg.with_stable_storage = true;
  cfg.persist_every = kCheckpointEvery;
  cfg.net.loss_probability = 0.005;
  cfg.factory = app::kv_store_factory();
  if (v.traced) cfg.factory = timed(cfg.factory, apps[0]);
  Testbed tb(cfg);
  tb.start();
  r.setup_s = seconds_since(t_setup);

  TraceJoin* join = v.traced ? &joins[0] : nullptr;
  if (join != nullptr) {
    for (std::uint32_t s = 0; s < kReplicas; ++s) observe_rounds(tb, s, *join);
    join->drain(tb.recorder().trace(), false);
  }

  // Backups 1 and 2 crash and restart in turn for the whole run; the
  // primary (replica 0) never restarts (see README: restarting a passive
  // primary aborts the oracle).  A restart rebuilds the node's GCS
  // endpoint, so its totals are banked first.
  Counts retired{};
  std::vector<Micros> crashes;
  const Micros start = tb.sim().now();
  const Micros last_send = start + z.churn_requests * kChurnPeriodUs;
  for (Micros t = start + kChurnLeadUs; t + kDownUs + kChurnLeadUs < last_send;
       t += kCrashEveryUs) {
    const auto backup = static_cast<std::uint32_t>(1 + crashes.size() % 2);
    crashes.push_back(t);
    tb.sim().at(t, [&tb, backup] { tb.crash_server(backup); });
    tb.sim().at(t + kDownUs, [&tb, &retired, join, backup] {
      retired += gcs_counts(tb.gcs_of(tb.server_node(backup)).stats());
      tb.restart_server(backup);
      if (join != nullptr) observe_rounds(tb, backup, *join);
    });
  }

  const Counts before = read_counts(tb);
  const auto t_run = Clock::now();
  churn_client(tb, z.churn_requests, seed, logs[0], join);
  const auto n = static_cast<std::uint64_t>(z.churn_requests);
  const Micros limit = tb.sim().now() + kRunLimitUs;
  while (logs[0].answered + logs[0].failed < n && tb.sim().now() < limit) {
    tb.sim().run_until(tb.sim().now() + kSliceUs);
    if (join != nullptr) join->drain(tb.recorder().trace(), true);
  }
  r.run_s = seconds_since(t_run);
  Counts after = read_counts(tb);
  after += retired;
  const Counts delta = after - before;
  r.run_events = static_cast<std::uint64_t>(delta[kEvents]);
  if (logs[0].answered + logs[0].failed < n) {
    r.failures.push_back("passive_churn: requests still outstanding");
  }

  // Let the last restarted backup finish its state transfer.
  tb.sim().run_for(500'000);
  if (join != nullptr) join->drain(tb.recorder().trace(), false);
  r.events = tb.sim().events_executed();

  collect_clients(r, logs, &crashes);
  check_client(logs[0], "passive_churn", true, r);
  check_ring(tb, "passive_churn", v, r);
  // The request count is a multiple of the checkpoint cadence, so the last
  // request closes a checkpoint and every recovered backup holds the
  // primary's state.
  replication::ReplicaManager& primary = tb.server(0);
  if (!primary.is_primary()) r.failures.push_back("passive_churn: replica 0 lost the primary role");
  const std::uint64_t d0 = static_cast<app::KvStoreApp&>(unwrap(primary.app())).state_digest();
  for (std::uint32_t s = 1; s < kReplicas; ++s) {
    replication::ReplicaManager& b = tb.server(s);
    if (!b.recovered()) {
      r.failures.push_back("passive_churn: backup " + std::to_string(s) + " did not recover");
    } else if (static_cast<app::KvStoreApp&>(unwrap(b.app())).state_digest() != d0) {
      r.failures.push_back("passive_churn: backup " + std::to_string(s) +
                           " state digest differs from the primary's");
    }
  }

  const auto ops = static_cast<double>(r.answered);
  layer_from_counts(r, delta, ops);
  auto& L = r.layer;
  double writes = 0;
  double keys = 0;
  for (std::uint32_t s = 0; s < kReplicas; ++s) {
    writes += static_cast<double>(tb.store_of(s).writes());
    keys += static_cast<double>(tb.store_of(s).keys());
  }
  L["storage.writes_per_op"] = per(writes, ops);
  L["storage.keys_end"] = keys;
  L["orb.outstanding_max"] = static_cast<double>(logs[0].outstanding_max);
  L["orb.timeouts"] = static_cast<double>(tb.client().timeouts());
  if (v.traced) layer_from_trace(r, joins, apps, ops);
  return r;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kFig5Rmi, Workload::kShardedKv, Workload::kPassiveChurn}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFig5Rmi: return "fig5_rmi";
    case Workload::kShardedKv: return "sharded_kv";
    case Workload::kPassiveChurn: return "passive_churn";
  }
  return "?";
}

unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

RepResult run_rep(Workload w, std::uint64_t seed, bool smoke, const Variant& v) {
  const Sizes z = sizes(smoke);
  switch (w) {
    case Workload::kFig5Rmi: return run_fig5(seed, z, v);
    case Workload::kShardedKv: return run_sharded(seed, z, v);
    case Workload::kPassiveChurn: return run_churn(seed, z, v);
  }
  return {};
}

}  // namespace perfbench
