#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace cts::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kNetDrop: return "net_drop";
    case EventKind::kNetCorrupt: return "net_corrupt";
    case EventKind::kNetPartition: return "net_partition";
    case EventKind::kNetHeal: return "net_heal";
    case EventKind::kTokenPass: return "token_pass";
    case EventKind::kTokenRetransmit: return "token_retransmit";
    case EventKind::kMsgRetransmit: return "msg_retransmit";
    case EventKind::kRingChange: return "ring_change";
    case EventKind::kWindowStall: return "window_stall";
    case EventKind::kGcsDeliver: return "gcs_deliver";
    case EventKind::kGcsViewChange: return "gcs_view_change";
    case EventKind::kGcsSendCancelled: return "gcs_send_cancelled";
    case EventKind::kCcsRoundStart: return "ccs_round_start";
    case EventKind::kCcsRoundComplete: return "ccs_round_complete";
    case EventKind::kSynchronizerWin: return "synchronizer_win";
    case EventKind::kCcsSendAvoided: return "ccs_send_avoided";
    case EventKind::kProposalResent: return "proposal_resent";
    case EventKind::kSkewSample: return "skew_sample";
    case EventKind::kCcsReentrantCall: return "ccs_reentrant_call";
    case EventKind::kCheckpointTaken: return "checkpoint_taken";
    case EventKind::kCheckpointApplied: return "checkpoint_applied";
    case EventKind::kStateTransfer: return "state_transfer";
    case EventKind::kFailover: return "failover";
    case EventKind::kRecoveryStart: return "recovery_start";
    case EventKind::kRecoveryComplete: return "recovery_complete";
    case EventKind::kOracleViolation: return "oracle_violation";
    case EventKind::kStampRejected: return "stamp_rejected";
    case EventKind::kGatewayForward: return "gateway_forward";
    case EventKind::kHandoffExport: return "handoff_export";
    case EventKind::kHandoffAdopt: return "handoff_adopt";
    case EventKind::kTotemRecoveryGaveUp: return "totem_recovery_gave_up";
  }
  return "unknown";
}

void TraceLog::add_chunk() {
  chunks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes));
  cur_ = chunks_.back().get();
  end_ = cur_ + kChunkBytes;
}

void TraceLog::Iterator::decode() {
  if (kChunkBytes - offset_ < kMaxEventBytes) {  // the writer moved on here too
    ++chunk_;
    offset_ = 0;
  }
  const std::uint8_t* p = log_->chunks_[chunk_].get() + offset_;
  auto varint = [&p] {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (byte < 0x80) return v;
    }
  };
  auto unzigzag = [](std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  };
  ev_.at = static_cast<Micros>(static_cast<std::uint64_t>(ev_.at) +
                               static_cast<std::uint64_t>(unzigzag(varint())));
  ev_.kind = static_cast<EventKind>(*p++);
  ev_.node = static_cast<std::uint32_t>(varint()) - 1u;
  ev_.replica = static_cast<std::uint32_t>(varint()) - 1u;
  ev_.a = unzigzag(varint());
  ev_.b = unzigzag(varint());
  ev_.c = unzigzag(varint());
  offset_ = static_cast<std::size_t>(p - log_->chunks_[chunk_].get());
}

std::size_t TraceLog::count(EventKind kind) const {
  const Range evs = events();
  return static_cast<std::size_t>(std::count_if(
      evs.begin(), evs.end(), [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::vector<TraceEvent> TraceLog::select(EventKind kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::string TraceLog::to_jsonl() const {
  std::ostringstream out;
  for (const TraceEvent& e : events()) {
    out << "{\"at\": " << e.at << ", \"kind\": \"" << to_string(e.kind) << "\", \"node\": ";
    if (e.node == NodeId::kInvalid) {
      out << "null";
    } else {
      out << e.node;
    }
    out << ", \"replica\": ";
    if (e.replica == ReplicaId::kInvalid) {
      out << "null";
    } else {
      out << e.replica;
    }
    out << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"c\": " << e.c << "}\n";
  }
  return out.str();
}

bool TraceLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_jsonl();
  return static_cast<bool>(f);
}

}  // namespace cts::obs
