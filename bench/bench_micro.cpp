// Micro-benchmarks (google-benchmark) for the hot paths of the stack:
// message codecs, CCS payload encode/decode, RNG draws, histogram
// accumulation, and whole-stack simulation speed.  These bound the per-round
// CPU cost that the protocol adds on top of the network latency.  Simulator
// scheduling and token-ring rates live in bench_sim_core, whose results are
// recorded in BENCH_sim_core.json.
#include <benchmark/benchmark.h>

#include "app/testbed.hpp"
#include "obs/recorder.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "cts/ccs_message.hpp"
#include "gcs/gcs.hpp"

namespace {

using namespace cts;

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
  obs::export_from_env(tb.recorder(), "bench_micro.fullstack");
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_FullStackSimulationSpeed)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
