// The replicated application used throughout the paper's evaluation: a
// server whose remote method returns the current time (Section 4.2, "the
// client invokes a remote method that returns the current time in two
// CORBA longs; the server simply calls gettimeofday()").
//
// The server optionally inserts a busy-wait between its clock-related
// operations — the paper's "empty iteration loop ... to simulate a random
// delay comparable to the token-passing time" — drawn from {60..400}us.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "cts/time_syscalls.hpp"
#include "replication/replica.hpp"
#include "sim/simulator.hpp"

namespace cts::app {

/// Request opcodes understood by TimeServerApp.
enum class TimeServerOp : std::uint8_t {
  kGetTime = 1,       // one gettimeofday() round, returns (sec, usec)
  kGetTimeBurst = 2,  // u32 count follows: that many rounds with random delays
  kGetCounter = 3,    // pure state read (no clock op)
};

/// Builds request payloads for TimeServerApp (used by clients).
Bytes make_get_time_request();
Bytes make_burst_request(std::uint32_t rounds);
Bytes make_get_counter_request();

/// The replicated time server.  Built by time_server_factory() it reads
/// the group clock; built by local_time_server_factory() it is the control
/// variant of the paper's Figure-5 experiment and answers from its LOCAL
/// hardware clock, bypassing the Consistent Time Service entirely.  That
/// variant is fast, but "replica consistency of the server for this
/// operation cannot be guaranteed" (Section 4.2) — the replicas' histories
/// diverge, which the tests assert.
class TimeServerApp : public replication::Replica {
 public:
  struct Options {
    /// Busy-wait bounds between clock ops in a burst (paper: 60-400us).
    Micros min_delay_us = 60;
    Micros max_delay_us = 400;
    /// Per-replica seed for the (physically nondeterministic) delays.
    std::uint64_t delay_seed = 1;
    /// Fixed per-replica request-processing overhead before the clock op
    /// (models ORB demarshalling + scheduling; systematically different per
    /// host, which is why one replica dominates the CCS-winner statistics
    /// in the paper's measurement).  Set by the factory.
    Micros pre_op_base_us = 30;
    /// Per-request scheduling jitter added on top.
    Micros pre_op_jitter_us = 30;
  };

  void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) override;
  [[nodiscard]] Bytes checkpoint() const override;
  void restore(const Bytes& state) override;
  /// FNV-1a over the time history.
  [[nodiscard]] std::uint64_t state_digest() const override;

  /// Replica-deterministic state, for cross-replica consistency asserts.
  [[nodiscard]] std::uint64_t counter() const { return counter_; }
  [[nodiscard]] const std::vector<Micros>& time_history() const { return history_; }

 private:
  friend replication::ReplicaFactory time_server_factory(Options opt);
  friend replication::ReplicaFactory local_time_server_factory(Options opt);

  TimeServerApp(replication::ReplicaContext& ctx, Options opt, bool local_clock);

  sim::Task serve(SharedBytes request, std::function<void(Bytes)> done);

  replication::ReplicaContext& ctx_;
  bool local_clock_;
  std::optional<ccs::TimeSyscalls> sys_;  // group clock only
  Options opt_;
  Rng delay_rng_;

  // Deterministic state (must be identical across replicas).
  std::uint64_t counter_ = 0;
  std::vector<Micros> history_;
};

/// Factory adapters for ReplicaManager: the group-clock server and the
/// local-clock control.
replication::ReplicaFactory time_server_factory(TimeServerApp::Options opt = {});
replication::ReplicaFactory local_time_server_factory(TimeServerApp::Options opt = {});

}  // namespace cts::app
