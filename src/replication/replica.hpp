// Application-side replica interface.
//
// A replicated application implements Replica.  Requests are delivered in
// the group's agreed total order, one at a time; while handling a request
// the application may perform clock-related operations through the
// interposed TimeSyscalls it gets from its ReplicaContext — which is where
// the Consistent Time Service makes the replicas deterministic.
#pragma once

#include <functional>
#include <memory>

#include "clock/physical_clock.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "cts/consistent_time_service.hpp"
#include "sim/simulator.hpp"

namespace cts::replication {

/// Everything a replica implementation may touch.  Handed to the factory
/// when the ReplicaManager instantiates the application object.
struct ReplicaContext {
  sim::Simulator& sim;
  /// The consistent time service for this replica.  Clock-related
  /// operations MUST go through it (or through a TimeSyscalls bound to it)
  /// to keep the replicas deterministic.
  ccs::ConsistentTimeService& time;
  GroupId group;
  ReplicaId replica;
  /// The processing thread's identifier — the paper assigns exactly one
  /// thread to process incoming invocations (Section 2, last paragraph).
  ThreadId processing_thread;
  /// The host's raw hardware clock.  Only baseline applications touch this
  /// directly — doing so reintroduces exactly the replica non-determinism
  /// the Consistent Time Service exists to remove.
  clock::PhysicalClock& hw_clock;
  /// The host's GCS endpoint, or nullptr in minimal harnesses.  Sharded
  /// applications build their cross-shard CausalMessenger streams on it
  /// (lease transfer, session migration — doc/SHARDING.md); everything
  /// they send rides the same agreed order as their request traffic.
  gcs::GcsEndpoint* gcs = nullptr;
};

/// A replicated application object.
class Replica {
 public:
  virtual ~Replica() = default;

  /// Handle one request; call `done(reply)` when finished.  Handling may be
  /// asynchronous (e.g. a coroutine awaiting clock rounds); the manager
  /// serializes requests, so the next request is only delivered after
  /// `done` runs.  The request is a zero-copy view of the delivered
  /// message; an implementation that outlives the call (a coroutine frame)
  /// keeps a SharedBytes copy — a refcount bump, not a buffer copy.
  virtual void handle_request(const SharedBytes& request, std::function<void(Bytes)> done) = 0;

  /// Serialize the full application state for state transfer.
  [[nodiscard]] virtual Bytes checkpoint() const = 0;

  /// Replace the application state with a checkpoint.  All or nothing: a
  /// malformed checkpoint throws CodecError and leaves the state unchanged.
  /// Restoring schedules no events and draws no randomness.
  virtual void restore(const Bytes& state) = 0;

  /// Digest of the replica-deterministic state: equal at every replica
  /// that processed the same requests.  Defaults to a hash of checkpoint().
  [[nodiscard]] virtual std::uint64_t state_digest() const { return fnv1a64(checkpoint()); }
};

using ReplicaFactory = std::function<std::unique_ptr<Replica>(ReplicaContext&)>;

}  // namespace cts::replication
