// Example: replica-deterministic transaction timeouts and transaction ids.
//
// The paper's introduction names the two killers of replica determinism
// that this example exercises:
//   * "the physical hardware clock value is used as the seed ... to
//     generate unique identifiers such as ... transaction identifiers";
//   * "the physical hardware clock value is used for timeouts ... by
//     transaction processing systems in two-phase commit and transaction
//     session management".
//
// A 2-way actively replicated transaction manager mints transaction ids
// with ConsistentIdGenerator and aborts idle transactions with lazy
// group-time deadlines (DeadlineIndex): each request reads the group clock
// and first aborts the open transactions whose deadline it has reached.
// Both replicas mint the SAME ids and abort the SAME transactions at the
// SAME point of the request stream (and checkpoint the same deadlines) —
// with hardware clocks, both would diverge immediately.
//
// Run: ./build/examples/transaction_timeouts
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "app/testbed.hpp"
#include "cts/deadlines.hpp"
#include "cts/id_gen.hpp"

using namespace cts;
using namespace cts::app;

namespace {

constexpr Micros kTxTimeout = 20'000;  // 20 ms of group time

enum class TxOp : std::uint8_t { kBegin = 1, kCommit = 2 };

class TxManagerApp : public replication::Replica {
 public:
  explicit TxManagerApp(replication::ReplicaContext& ctx)
      : sys_(ctx.time, ctx.processing_thread), ids_(ctx.time, ThreadId{50}, 1) {}

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override {
    serve(request, std::move(done));
  }

  Bytes checkpoint() const override {
    BytesWriter w;
    w.u64(committed_);
    w.u64(aborted_);
    w.u64(ids_.minted());
    w.u32(static_cast<std::uint32_t>(open_.size()));
    for (const auto& [tx, deadline] : open_) {
      w.u64(tx);
      w.i64(deadline);
    }
    return std::move(w).take();
  }
  void restore(const Bytes& state) override {
    BytesReader r(state);
    committed_ = r.u64();
    aborted_ = r.u64();
    ids_.restore_minted(r.u64());
    open_.clear();
    deadlines_.clear();
    const auto n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t tx = r.u64();
      open_[tx] = r.i64();
      deadlines_.arm(open_[tx], tx, tx);
    }
  }

  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }
  [[nodiscard]] std::size_t open_count() const { return open_.size(); }

 private:
  /// Abort every open transaction whose deadline the group-clock reading
  /// `now` has reached.
  void abort_expired(Micros now) {
    deadlines_.expire(now, [&](std::uint64_t tx, std::uint64_t) {
      open_.erase(tx);
      ++aborted_;
      log_.push_back("abort  tx=" + std::to_string(tx % 100000) + " at group time +" +
                     std::to_string(now % 1'000'000) + "us");
    });
  }

  sim::Task serve(SharedBytes request, std::function<void(Bytes)> done) {
    BytesReader r(request);
    const auto op = static_cast<TxOp>(r.u8());
    BytesWriter reply;
    switch (op) {
      case TxOp::kBegin: {
        const std::uint64_t tx = co_await ids_.make_id();
        const Micros now = (co_await sys_.gettimeofday()).total_us();
        abort_expired(now);
        open_[tx] = now + kTxTimeout;
        deadlines_.arm(now + kTxTimeout, tx, tx);  // tx ids are unique stamps
        log_.push_back("begin  tx=" + std::to_string(tx % 100000));
        reply.u64(tx);
        break;
      }
      case TxOp::kCommit: {
        const std::uint64_t tx = r.u64();
        abort_expired((co_await sys_.gettimeofday()).total_us());
        auto it = open_.find(tx);
        if (it == open_.end()) {
          log_.push_back("late   tx=" + std::to_string(tx % 100000) + " (already aborted)");
          reply.u8(0);
        } else {
          deadlines_.disarm(it->second, tx);
          open_.erase(it);
          ++committed_;
          log_.push_back("commit tx=" + std::to_string(tx % 100000));
          reply.u8(1);
        }
        break;
      }
    }
    done(std::move(reply).take());
  }

  ccs::TimeSyscalls sys_;
  ccs::ConsistentIdGenerator ids_;
  std::map<std::uint64_t, Micros> open_;  // tx -> group-time deadline
  ccs::DeadlineIndex<std::uint64_t> deadlines_;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::vector<std::string> log_;
};

Bytes begin_req() {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(TxOp::kBegin));
  return std::move(w).take();
}
Bytes commit_req(std::uint64_t tx) {
  BytesWriter w;
  w.u8(static_cast<std::uint8_t>(TxOp::kCommit));
  w.u64(tx);
  return std::move(w).take();
}

sim::Task drive(Testbed& tb, bool& done) {
  // Transaction 1: committed promptly.
  Bytes r = co_await tb.client().call(begin_req());
  const std::uint64_t tx1 = BytesReader(r).u64();
  std::printf("client: began tx %llu\n", (unsigned long long)(tx1 % 100000));
  co_await tb.sim().delay(2'000);
  r = co_await tb.client().call(commit_req(tx1));
  std::printf("client: commit tx %llu -> %s\n", (unsigned long long)(tx1 % 100000),
              BytesReader(r).u8() ? "ok" : "TOO LATE");

  // Transaction 2: the client dawdles past the 20ms timeout.
  r = co_await tb.client().call(begin_req());
  const std::uint64_t tx2 = BytesReader(r).u64();
  std::printf("client: began tx %llu, then stalls 60ms...\n",
              (unsigned long long)(tx2 % 100000));
  co_await tb.sim().delay(60'000);
  r = co_await tb.client().call(commit_req(tx2));
  std::printf("client: commit tx %llu -> %s\n", (unsigned long long)(tx2 % 100000),
              BytesReader(r).u8() ? "ok" : "TOO LATE");

  // Transaction 3: begun and left open; its deadline is still armed when
  // the run ends, with no request to apply it.
  r = co_await tb.client().call(begin_req());
  std::printf("client: began tx %llu and leaves it open\n",
              (unsigned long long)(BytesReader(r).u64() % 100000));
  done = true;
}

}  // namespace

int main() {
  std::printf("== Replica-deterministic transaction timeouts ==\n\n");

  TestbedConfig cfg;
  cfg.servers = 2;
  cfg.max_clock_offset_us = 400'000;
  cfg.factory = [](replication::ReplicaContext& ctx) {
    return std::make_unique<TxManagerApp>(ctx);
  };
  Testbed tb(cfg);
  tb.start();

  bool done = false;
  drive(tb, done);
  while (!done) tb.sim().run_until(tb.sim().now() + 100'000);
  tb.sim().run_for(5'000'000);

  std::printf("\nper-replica transaction-manager event logs:\n");
  for (std::uint32_t s = 0; s < 2; ++s) {
    auto& app = static_cast<TxManagerApp&>(tb.server(s).app());
    std::printf("  replica %u:\n", s + 1);
    for (const auto& line : app.log()) std::printf("    %s\n", line.c_str());
  }
  auto& a0 = static_cast<TxManagerApp&>(tb.server(0).app());
  auto& a1 = static_cast<TxManagerApp&>(tb.server(1).app());
  const bool identical = a0.log() == a1.log();
  std::printf("\nreplica logs identical (same ids, same timeout decisions, same group "
              "times): %s\n",
              identical ? "YES" : "NO (bug!)");
  // Transaction 3 is still open: both checkpoints carry it and its deadline.
  const bool same_state = a0.open_count() == 1 && a0.checkpoint() == a1.checkpoint();
  std::printf("replica checkpoints identical, 1 transaction still open: %s\n",
              same_state ? "YES" : "NO (bug!)");
  return identical && same_state ? 0 : 1;
}
