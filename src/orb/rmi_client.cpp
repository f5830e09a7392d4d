#include "orb/rmi_client.hpp"

namespace cts::orb {

RmiClient::RmiClient(sim::Simulator& sim, gcs::GcsEndpoint& gcs, GroupId client_group,
                     GroupId server_group, ConnectionId conn)
    : sim_(sim), gcs_(gcs), client_group_(client_group), server_group_(server_group),
      conn_(conn) {
  gcs_.join_group(client_group_, ReplicaId{0});
  gcs_.subscribe(client_group_, [this](const gcs::Message& m) { on_message(m); });
}

RmiClient::~RmiClient() {
  // Timed invocations may still have their timeout timers pending; cancel
  // them through the node's scope (which outlives the client) so they do
  // not fire into freed memory (an untimed one's id is never valid, so its
  // cancel does nothing).  Destroying `outstanding_` drops the completions,
  // destroying any coroutine frames parked inside.
  for (auto& [seq, out] : outstanding_) gcs_.scope().cancel(out.timer);
}

MsgSeqNum RmiClient::invoke(Bytes request, ReplyFn on_reply, Micros timeout_us,
                            TimeoutFn on_timeout) {
  return invoke_complete(
      std::move(request),
      [on_reply = std::move(on_reply), on_timeout = std::move(on_timeout)](const Bytes* r) mutable {
        if (r != nullptr) {
          if (on_reply) on_reply(*r);
        } else if (on_timeout) {
          on_timeout();
        }
      },
      timeout_us);
}

MsgSeqNum RmiClient::invoke_complete(Bytes request, CompleteFn complete, Micros timeout_us) {
  const MsgSeqNum seq = next_seq_++;
  Outstanding out;
  out.complete = std::move(complete);

  if (timeout_us > 0) {
    // The timer captures no frame — the completion in `outstanding_` is the
    // single owner; the timer merely extracts it on expiry.  Scope-owned:
    // a node crash cancels it.
    out.timer = gcs_.scope().after(timeout_us, [this, seq] {
      auto it = outstanding_.find(seq);
      if (it == outstanding_.end()) return;  // reply arrived in time
      auto fn = std::move(it->second.complete);
      outstanding_.erase(it);
      ++timeouts_;
      if (fn) fn(nullptr);
    });
  }
  outstanding_.emplace(seq, std::move(out));

  gcs::Message m;
  m.hdr.type = gcs::MsgType::kUserRequest;
  m.hdr.src_grp = client_group_;
  m.hdr.dst_grp = server_group_;
  m.hdr.conn = conn_;
  m.hdr.tag = ThreadId{0};
  m.hdr.seq = seq;
  m.hdr.sender_replica = ReplicaId{0};
  m.payload = std::move(request);
  gcs_.send(std::move(m));
  return seq;
}

void RmiClient::on_message(const gcs::Message& m) {
  if (m.hdr.type != gcs::MsgType::kUserReply || m.hdr.conn != conn_) return;
  auto it = outstanding_.find(m.hdr.seq);
  if (it == outstanding_.end()) return;  // late duplicate after completion
  // The reply won the race: disarm the timeout (cancellation consumes no
  // sequence numbers, so the rest of the schedule is untouched).
  gcs_.scope().cancel(it->second.timer);
  auto fn = std::move(it->second.complete);
  outstanding_.erase(it);
  ++replies_;
  // The client API hands out plain Bytes (its callers own their reply);
  // materialize the shared view once, at this boundary.
  const Bytes reply = m.payload.to_bytes();
  fn(&reply);
}

}  // namespace cts::orb
