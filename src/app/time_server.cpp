#include "app/time_server.hpp"

namespace cts::app {

Bytes make_get_time_request() {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(TimeServerOp::kGetTime));
  return std::move(w).take();
}

Bytes make_burst_request(std::uint32_t rounds) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(TimeServerOp::kGetTimeBurst));
  w.u32(rounds);
  return std::move(w).take();
}

Bytes make_get_counter_request() {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(TimeServerOp::kGetCounter));
  return std::move(w).take();
}

TimeServerApp::TimeServerApp(replication::ReplicaContext& ctx, Options opt, bool local_clock)
    : ctx_(ctx), local_clock_(local_clock), opt_(opt), delay_rng_(opt.delay_seed) {
  if (!local_clock_) sys_.emplace(ctx.time, ctx.processing_thread);
}

void TimeServerApp::handle_request(const SharedBytes& request, std::function<void(Bytes)> done) {
  serve(request, std::move(done));
}

sim::Task TimeServerApp::serve(SharedBytes request, std::function<void(Bytes)> done) {
  BytesReader r(request);
  const auto op = static_cast<TimeServerOp>(r.u8());
  BytesWriter reply;

  switch (op) {
    case TimeServerOp::kGetTime: {
      // The paper's measured operation: the server "simply calls
      // gettimeofday(), which returns the clock value" in two longs.
      // The pre-op delay models ORB + scheduling overhead, which differs
      // per host (Figure 1(b)); the local-clock control pays it too, so the
      // Figure-5 latency comparison isolates the time service itself.
      co_await ctx_.time.scope().delay(opt_.pre_op_base_us + delay_rng_.range(0, opt_.pre_op_jitter_us));
      const Micros t =
          local_clock_ ? ctx_.hw_clock.read() : (co_await sys_->gettimeofday()).total_us();
      ++counter_;
      history_.push_back(t);
      const ccs::TimeVal tv = ccs::TimeVal::from_us(t);
      reply.i64(tv.tv_sec);
      reply.i64(tv.tv_usec);
      break;
    }
    case TimeServerOp::kGetTimeBurst: {
      // One invocation triggers a sequence of clock-related operations with
      // random busy-wait delays between them (Section 4.2, experiment 2).
      const std::uint32_t rounds = r.u32();
      Micros last = 0;
      for (std::uint32_t i = 0; i < rounds; ++i) {
        co_await ctx_.time.scope().delay(delay_rng_.range(opt_.min_delay_us, opt_.max_delay_us));
        last = local_clock_ ? ctx_.hw_clock.read() : (co_await sys_->gettimeofday()).total_us();
        ++counter_;
        history_.push_back(last);
      }
      reply.i64(last);
      reply.u32(rounds);
      break;
    }
    case TimeServerOp::kGetCounter: {
      reply.u64(counter_);
      break;
    }
  }
  done(std::move(reply).take());
}

Bytes TimeServerApp::checkpoint() const {
  BytesWriter w;
  w.u64(counter_);
  // A local-clock history is this host's own readings, not replicated
  // state, so it is not transferred.
  if (local_clock_) return std::move(w).take();
  w.u32(static_cast<std::uint32_t>(history_.size()));
  for (Micros t : history_) w.i64(t);
  return std::move(w).take();
}

void TimeServerApp::restore(const Bytes& state) {
  // Check the whole checkpoint before assigning anything: a malformed one
  // throws CodecError here and leaves the app as it was.
  BytesReader r(state);
  const std::uint64_t counter = r.u64();
  std::uint32_t n = 0;
  if (!local_clock_) n = r.u32();
  const std::size_t history_at = r.pos();
  r.skip(std::size_t{n} * sizeof(std::int64_t));

  counter_ = counter;
  history_.clear();
  history_.reserve(n);
  BytesReader h(state);
  h.skip(history_at);
  for (std::uint32_t i = 0; i < n; ++i) history_.push_back(h.i64());
}

std::uint64_t TimeServerApp::state_digest() const {
  std::uint64_t h = fnv1a64({});
  for (const Micros v : history_) h = fnv1a64_fold(h, static_cast<std::uint64_t>(v));
  return h;
}

namespace {
/// Give each replica its own delay stream and its own systematic
/// processing overhead: the delays model CPU scheduling noise, which
/// differs per host (the paper's n2 was consistently fastest, winning
/// 9,977 of 10,000 rounds).
TimeServerApp::Options for_replica(TimeServerApp::Options o, ReplicaId replica) {
  o.delay_seed = o.delay_seed * 1000003 + replica.value;
  o.pre_op_base_us = o.pre_op_base_us + 40 * replica.value;
  return o;
}
}  // namespace

replication::ReplicaFactory time_server_factory(TimeServerApp::Options opt) {
  return [opt](replication::ReplicaContext& ctx) {
    return std::unique_ptr<TimeServerApp>(
        new TimeServerApp(ctx, for_replica(opt, ctx.replica), /*local_clock=*/false));
  };
}

replication::ReplicaFactory local_time_server_factory(TimeServerApp::Options opt) {
  return [opt](replication::ReplicaContext& ctx) {
    return std::unique_ptr<TimeServerApp>(
        new TimeServerApp(ctx, for_replica(opt, ctx.replica), /*local_clock=*/true));
  };
}

}  // namespace cts::app
