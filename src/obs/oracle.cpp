#include "obs/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/bytes.hpp"
#include "common/logging.hpp"

namespace cts::obs {

const char* OrderingOracle::check_name(Check c) {
  switch (c) {
    case Check::kTotalOrder:
      return "total_order";
    case Check::kMembership:
      return "membership";
    case Check::kClockMonotonicity:
      return "clock_monotonicity";
    case Check::kAgreement:
      return "agreement";
    case Check::kCausalFloor:
      return "causal_floor";
    case Check::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

OrderingOracle::OrderingOracle(sim::Simulator& sim, MetricsRegistry& metrics, TraceLog& trace,
                               bool abort_on_violation)
    : sim_(sim), metrics_(metrics), trace_(trace), abort_on_violation_(abort_on_violation) {
  c_checks_ = &metrics_.counter("oracle.checks_run");
  c_violations_ = &metrics_.counter("oracle.violations");
  c_clamped_ = &metrics_.counter("oracle.floor_checks_clamped");
  // Created eagerly so exports always carry the column, zero included —
  // the scalability bench gates on oracle.cross_shard == 0.
  c_cross_shard_ = &metrics_.counter("oracle.cross_shard");
  for (std::size_t i = 0; i < kCheckCount; ++i) {
    violation_counters_[i] =
        &metrics_.counter(std::string("oracle.violations.") + check_name(static_cast<Check>(i)));
  }
}

void OrderingOracle::violate(Check c, NodeId node, ReplicaId replica, std::string detail) {
  ++violations_total_;
  ++violations_by_check_[static_cast<std::size_t>(c)];
  ++*c_violations_;
  ++*violation_counters_[static_cast<std::size_t>(c)];
  trace_.record(sim_.now(), EventKind::kOracleViolation, node.value, replica.value,
                static_cast<std::int64_t>(c));
  CTS_ERROR() << "ORACLE VIOLATION [" << check_name(c) << "] node=" << node.value
              << " replica=" << replica.value << ": " << detail;
  if (log_.size() < 64) {
    log_.push_back(Violation{c, sim_.now(), node.value, replica.value, std::move(detail)});
  }
  if (abort_on_violation_) {
    // Tests run with abort enabled (Testbed default): an ordering violation
    // must never survive to a green exit, whatever the test asserts.
    std::abort();
  }
}

// --- Cached index accessors --------------------------------------------------

OrderingOracle::GroupCanon& OrderingOracle::group_canon(std::uint32_t grp) {
  if (cached_canon_ != nullptr && cached_canon_grp_ == grp) return *cached_canon_;
  auto [it, fresh] = canon_.try_emplace(grp);
  if (fresh) {
    // canon_ grew: GroupCanon objects moved, so any cached stream pointer
    // (whose OWNING map object lives inside a GroupCanon) must be re-found.
    // The stream heap buffers themselves survive, but re-finding is the
    // simple rule that is always right.
    cached_stream_ = nullptr;
  }
  cached_canon_grp_ = grp;
  cached_canon_ = &it->second;
  return *cached_canon_;
}

OrderingOracle::StreamCanon& OrderingOracle::stream_canon(std::uint32_t grp, GroupCanon& canon,
                                                          StreamKey key) {
  if (cached_stream_ != nullptr && cached_stream_grp_ == grp && cached_stream_key_ == key) {
    return *cached_stream_;
  }
  auto [it, fresh] = canon.streams.try_emplace(key);
  cached_stream_grp_ = grp;
  cached_stream_key_ = key;
  cached_stream_ = &it->second;
  return *cached_stream_;
}

OrderingOracle::NodeCursor& OrderingOracle::cursor(std::uint64_t node_group_key) {
  if (cached_cursor_ != nullptr && cached_cursor_key_ == node_group_key) return *cached_cursor_;
  auto [it, fresh] = cursors_.try_emplace(node_group_key);
  cached_cursor_key_ = node_group_key;
  cached_cursor_ = &it->second;
  return *cached_cursor_;
}

OrderingOracle::ReplicaState& OrderingOracle::replica_state(GroupId grp, ReplicaId r) {
  const std::uint64_t key = pack_u32_pair(grp.value, r.value);
  if (cached_replica_ != nullptr && cached_replica_key_ == key) return *cached_replica_;
  auto [it, fresh] = replicas_.try_emplace(key);
  cached_replica_key_ = key;
  cached_replica_ = &it->second;
  return *cached_replica_;
}

// --- Delivery / membership ---------------------------------------------------

void OrderingOracle::on_view_installed(NodeId node, std::uint64_t ring_id,
                                       std::span<const NodeId> members) {
  auto& v = views_.ensure(node.value);
  v.ring_id = ring_id;
  v.members.assign(members.begin(), members.end());
  ++view_epoch_;  // invalidate every cached membership verdict
}

void OrderingOracle::on_gcs_deliver(NodeId node, GroupId dst_grp, ConnectionId conn,
                                    std::uint8_t type, ThreadId tag, MsgSeqNum seq, NodeId sender,
                                    std::span<const std::uint8_t> payload) {
  ++checks_run_;
  ++*c_checks_;

  // Virtual synchrony: the sender must be a member of the receiver's
  // currently installed ring view.  Skipped until the node's first view is
  // observed (formation traffic cannot reach delivery before installation).
  if (const ViewInfo* vi = views_.find(node.value)) {
    const std::uint64_t member_key = pack_u32_pair(node.value, sender.value);
    if (member_key != cached_member_key_ || view_epoch_ != cached_member_epoch_) {
      const auto& m = vi->members;
      if (!std::binary_search(m.begin(), m.end(), sender)) {
        std::ostringstream os;
        os << "delivery from node " << sender.value << " outside installed view (ring "
           << vi->ring_id << ", " << m.size() << " members)";
        violate(Check::kMembership, node, ReplicaId{}, os.str());
      } else {
        cached_member_key_ = member_key;
        cached_member_epoch_ = view_epoch_;
      }
    }
  }

  // Total order: each node's delivery sequence for a group must be a
  // subsequence of the canonical sequence (order of first delivery
  // anywhere), with identical payload bytes per key.  The fingerprint is
  // an integrity hash, never exported, so it is the fast word_hash64.
  const std::uint64_t hash = word_hash64(payload);
  GroupCanon& canon = group_canon(dst_grp.value);
  StreamCanon& stream = stream_canon(
      dst_grp.value, canon,
      StreamKey{(static_cast<std::uint64_t>(conn.value) << 8) | type, tag.value});
  auto [it, fresh] = [&] {
    // Hinted lookup (see StreamCanon::hint): check the last-touched entry
    // and its successor before falling back to the full search.
    const std::size_t n = stream.by_seq.size();
    if (stream.hint < n) {
      const auto h = stream.by_seq.begin() + static_cast<std::ptrdiff_t>(stream.hint);
      if (h->first == seq) return std::pair{h, false};
      if (stream.hint + 1 < n && (h + 1)->first == seq) {
        ++stream.hint;
        return std::pair{h + 1, false};
      }
    }
    auto r = stream.by_seq.try_emplace(seq);
    stream.hint = static_cast<std::size_t>(r.first - stream.by_seq.begin());
    return r;
  }();
  if (fresh) {
    it->second.index = canon.next_index++;
    it->second.payload_hash = hash;
  } else if (it->second.payload_hash != hash) {
    std::ostringstream os;
    os << "payload divergence on grp " << dst_grp.value << " conn " << conn.value << " type "
       << static_cast<int>(type) << " tag " << tag.value << " seq " << seq;
    violate(Check::kTotalOrder, node, ReplicaId{}, os.str());
  }

  NodeCursor& cur = cursor(pack_u32_pair(node.value, dst_grp.value));
  if (cur.synced && it->second.index <= cur.last_index && !fresh) {
    std::ostringstream os;
    os << "grp " << dst_grp.value << " delivery (conn " << conn.value << " tag " << tag.value
       << " seq " << seq << ") at canonical index " << it->second.index
       << " after index " << cur.last_index << " — order disagrees across nodes";
    violate(Check::kTotalOrder, node, ReplicaId{}, os.str());
  }
  cur.last_index = it->second.index;
  cur.synced = true;
}

// --- CTS ---------------------------------------------------------------------

void OrderingOracle::on_stamp_observed(GroupId grp, ReplicaId replica, Micros ts,
                                       GroupId src_grp) {
  auto& rs = replica_state(grp, replica);
  if (rs.tracked_floor == kNoTime || ts > rs.tracked_floor) {
    rs.tracked_floor = ts;
    rs.floor_src_group = src_grp.value;
  }
}

void OrderingOracle::note_cross_shard(std::uint32_t src_group, std::uint32_t dst_group) {
  // Only floors minted by a DIFFERENT group count as cross-shard: a stamp
  // looped back within one ring is an intra-shard ordering bug, already
  // covered by the plain causal-floor column.
  if (src_group == GroupId::kInvalid || src_group == dst_group) return;
  ++cross_shard_total_;
  ++*c_cross_shard_;
}

void OrderingOracle::on_ccs_send(GroupId grp, ReplicaId replica, ThreadId thread, MsgSeqNum round,
                                 Micros proposed, bool /*special*/) {
  ++checks_run_;
  ++*c_checks_;
  auto& rs = replica_state(grp, replica);
  if (rs.tracked_floor != kNoTime && proposed <= rs.tracked_floor) {
    std::ostringstream os;
    os << "proposal " << proposed << " for round " << round << " (thread " << thread.value
       << ") at or below causal floor " << rs.tracked_floor;
    note_cross_shard(rs.floor_src_group, grp.value);
    violate(Check::kCausalFloor, NodeId{}, replica, os.str());
  }
  sends_[pack_u32_pair(grp.value, thread.value)][RoundReplicaKey{round, replica.value}] =
      SendInfo{proposed, rs.tracked_floor, rs.floor_src_group};
}

void OrderingOracle::on_round_complete(GroupId grp, ReplicaId replica, ThreadId thread,
                                       MsgSeqNum round, Micros value, ReplicaId winner,
                                       bool /*special*/) {
  ++checks_run_;
  ++*c_checks_;

  // Agreement: every replica completing (grp, thread, round) must observe
  // the same group-clock value and the same synchronizer.
  auto [rit, fresh] = rounds_[pack_u32_pair(grp.value, thread.value)].try_emplace(round);
  if (fresh) {
    rit->second = RoundRecord{value, winner.value};
  } else if (rit->second.value != value || rit->second.winner != winner.value) {
    std::ostringstream os;
    os << "round (thread " << thread.value << ", seq " << round << ") completed with value "
       << value << " winner " << winner.value << " but was first recorded as value "
       << rit->second.value << " winner " << rit->second.winner;
    violate(Check::kAgreement, NodeId{}, replica, os.str());
  }

  // Causal floor at completion: a value the fast-forward guard clamped
  // below the winner's floor-at-send breaks causality; a clamp that stays
  // above the floor is only counted.  Values at or above the proposal are
  // covered by the send-time check plus the monotone-raise of delivery.
  if (auto group_sends = sends_.find(pack_u32_pair(grp.value, thread.value));
      group_sends != sends_.end()) {
    if (auto sit = group_sends->second.find(RoundReplicaKey{round, winner.value});
        sit != group_sends->second.end()) {
      if (value < sit->second.proposed) {
        if (sit->second.floor_at_send != kNoTime && value <= sit->second.floor_at_send) {
          std::ostringstream os;
          os << "round (thread " << thread.value << ", seq " << round << ") value " << value
             << " clamped below the winner's causal floor at send " << sit->second.floor_at_send;
          note_cross_shard(sit->second.floor_src_group, grp.value);
          violate(Check::kCausalFloor, NodeId{}, replica, os.str());
        } else {
          ++*c_clamped_;
        }
      }
    }
  }

  // Group-clock monotonicity per (grp, replica, thread): values strictly
  // increase and wire round numbers never repeat within one incarnation.
  auto& ts = replica_state(grp, replica).threads[thread.value];
  if (ts.last_value != kNoTime && value <= ts.last_value) {
    std::ostringstream os;
    os << "group clock moved backwards on thread " << thread.value << ": round " << round
       << " returned " << value << " after " << ts.last_value;
    violate(Check::kClockMonotonicity, NodeId{}, replica, os.str());
  }
  ts.last_value = value;
  if (ts.round_synced && round <= ts.last_round) {
    std::ostringstream os;
    os << "round number " << round << " on thread " << thread.value
       << " did not advance past " << ts.last_round;
    violate(Check::kClockMonotonicity, NodeId{}, replica, os.str());
  }
  ts.last_round = round;
  ts.round_synced = true;
}

// --- Replication -------------------------------------------------------------

void OrderingOracle::on_checkpoint_chain(GroupId grp, ReplicaId replica,
                                         std::span<const CheckpointLink> chain, bool verified) {
  ++checks_run_;
  ++*c_checks_;
  if (!verified) {
    violate(Check::kCheckpoint, NodeId{}, replica, "unverified checkpoint chain adopted");
  }
  if (chain.empty()) {
    violate(Check::kCheckpoint, NodeId{}, replica, "empty checkpoint chain adopted");
    return;
  }
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].parent != chain[i - 1].link) {
      std::ostringstream os;
      os << "checkpoint chain link " << i << " parent " << chain[i].parent
         << " does not match previous link " << chain[i - 1].link;
      violate(Check::kCheckpoint, NodeId{}, replica, os.str());
    }
    if (chain[i].upto < chain[i - 1].upto) {
      std::ostringstream os;
      os << "checkpoint chain coverage decreasing: upto " << chain[i].upto << " after "
         << chain[i - 1].upto;
      violate(Check::kCheckpoint, NodeId{}, replica, os.str());
    }
  }
  auto& rs = replica_state(grp, replica);
  if (rs.has_chain && chain.back().upto < rs.chain_tail_upto) {
    std::ostringstream os;
    os << "adopted checkpoint covers " << chain.back().upto
       << " requests, rolling back earlier coverage " << rs.chain_tail_upto;
    violate(Check::kCheckpoint, NodeId{}, replica, os.str());
  }
  rs.chain_tail_upto = chain.back().upto;
  rs.has_chain = true;
}

void OrderingOracle::on_recovery_epoch(GroupId grp, ReplicaId replica, MsgSeqNum epoch) {
  ++checks_run_;
  ++*c_checks_;
  auto& rs = replica_state(grp, replica);
  if (rs.has_epoch && epoch <= rs.last_epoch) {
    std::ostringstream os;
    os << "recovery epoch " << epoch << " did not supersede " << rs.last_epoch;
    violate(Check::kCheckpoint, NodeId{}, replica, os.str());
  }
  rs.last_epoch = epoch;
  rs.has_epoch = true;
}

// --- Lifecycle ---------------------------------------------------------------

void OrderingOracle::on_node_reset(NodeId node) {
  // Value-only mutation: cached pointers stay valid.
  for (auto& [key, cur] : cursors_) {
    if ((key >> 32) == node.value) cur.synced = false;
  }
}

void OrderingOracle::on_replica_reset(GroupId grp, ReplicaId replica) {
  // A rebuilt replica restores round numbers from a checkpoint that may be
  // behind its dead predecessor's counters; re-sync them at the next
  // completion.  Values stay monotone across warm restarts (the adopted
  // checkpoint's group clock covers every completed round).  Chain coverage
  // and recovery epochs are per-incarnation: a restart from a stale disk
  // legitimately adopts an older chain before catching up via state
  // transfer, and GET_STATE wire sequences restart with the connection.
  auto& rs = replica_state(grp, replica);
  for (auto& [t, ts] : rs.threads) ts.round_synced = false;
  rs.has_chain = false;
  rs.chain_tail_upto = 0;
  rs.has_epoch = false;
}

void OrderingOracle::on_group_reset(GroupId grp) {
  // Total failure: the suffix of rounds after the newest persisted
  // checkpoint was lost and will be re-executed with fresh (higher) values,
  // so per-round agreement history no longer applies.  Value monotonicity
  // is deliberately NOT reset: the restored state must force the group
  // clock above every reading handed out before the outage.
  cts::erase_if(rounds_, [&](const auto& kv) { return (kv.first >> 32) == grp.value; });
  cts::erase_if(sends_, [&](const auto& kv) { return (kv.first >> 32) == grp.value; });
  // Connection sequence numbers restart with the group, so (conn, type,
  // tag, seq) keys are legitimately reused: the canonical delivery
  // sequence rebuilds from the post-restart traffic.
  canon_.erase(grp.value);
  cts::erase_if(cursors_, [&](const auto& kv) {
    return (kv.first & 0xffffffffu) == grp.value;
  });
  // Structural mutation of cached-pointer targets: drop every cache.
  cached_canon_ = nullptr;
  cached_stream_ = nullptr;
  cached_cursor_ = nullptr;
  for (auto& [key, rs] : replicas_) {
    if ((key >> 32) == grp.value) {
      for (auto& [t, ts] : rs.threads) ts.round_synced = false;
    }
  }
}

}  // namespace cts::obs
