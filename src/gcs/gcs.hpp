// Group communication abstraction over Totem.
//
// The paper's replication infrastructure addresses *groups of replicas*,
// not hosts.  Every protocol message carries the common fault-tolerant
// header of Section 3.1: message type, source group id, destination group
// id, connection id, and message sequence number.  (src_grp, dst_grp,
// conn_id) name a connection; msg_seq_num names a message within it — for
// CCS messages the field carries the CCS round number.
//
// This layer provides, per simulated host:
//   * group membership announced through the totally-ordered stream, so all
//     hosts observe the same sequence of group views interleaved
//     identically with user traffic;
//   * delivery of group-addressed messages to local subscribers, in Totem's
//     agreed total order;
//   * receiver-side duplicate detection: with active replication, every
//     replica of a group sends the same logical message (same connection,
//     tag, sequence number); only the first copy ordered by Totem is
//     delivered ("effective duplicate detection mechanism", paper §4.3);
//   * sender-side duplicate suppression: when a copy of a message this host
//     still has queued is delivered, the queued copy is cancelled before it
//     ever reaches the wire.  This is why, in the paper's measurement, the
//     three server replicas put only 1 / 9,977 / 22 CCS messages on the
//     network for 10,000 rounds instead of 10,000 each.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "common/unique_fn.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace cts::gcs {

/// Message types carried over the group communication system.
enum class MsgType : std::uint8_t {
  kUserRequest = 1,  // remote method invocation
  kUserReply = 2,    // reply to an invocation
  kCcs = 3,          // Consistent Clock Synchronization control message
  kGetState = 4,     // state-transfer synchronization point (checkpoint)
  kState = 5,        // checkpoint payload for a recovering replica
  kGroupJoin = 6,    // replica joined a group (control)
  kGroupLeave = 7,   // replica left a group (control)
  kFragment = 8,     // one fragment of a large message (transparent)
};
/// Number of message types; decode() rejects a type byte outside
/// [1, kMsgTypes].
inline constexpr std::size_t kMsgTypes = 8;

[[nodiscard]] const char* to_string(MsgType t);

/// The common fault-tolerant protocol message header (paper Section 3.1).
struct MessageHeader {
  MsgType type = MsgType::kUserRequest;
  GroupId src_grp;
  GroupId dst_grp;
  ConnectionId conn;
  /// Disambiguates streams within a connection; CCS messages put the
  /// sending thread identifier here so duplicate detection is per thread.
  ThreadId tag;
  /// Sequence number within (conn, type, tag); the CCS round number for
  /// kCcs messages.
  MsgSeqNum seq = 0;
  /// Which replica produced this copy (not part of the logical identity).
  ReplicaId sender_replica;
  NodeId sender_node;
};

struct Message {
  MessageHeader hdr;
  /// Delivered messages hold a zero-copy slice of the (batched) packet they
  /// arrived in; locally originated ones wrap their own buffer (Bytes
  /// converts implicitly).  Mutating consumers stage into a Bytes and
  /// re-assign — the view itself is immutable.
  SharedBytes payload;
};

/// A member of a group: a replica hosted on a node.
struct GroupMember {
  NodeId node;
  ReplicaId replica;
  friend auto operator<=>(const GroupMember&, const GroupMember&) = default;
};

/// A group view: the membership as observed at a point in the totally
/// ordered stream.
struct GroupView {
  GroupId group;
  ViewNum view_num = 0;
  std::vector<GroupMember> members;  // sorted

  [[nodiscard]] bool contains(ReplicaId r) const {
    for (const auto& m : members) {
      if (m.replica == r) return true;
    }
    return false;
  }
};

/// Wire-level statistics per message type (counts of copies that actually
/// reached the network, after sender-side suppression).
struct GcsStats {
  std::uint64_t sent_attempted[16]{};
  std::uint64_t sent_cancelled[16]{};
  std::uint64_t delivered[16]{};
  std::uint64_t duplicates_dropped[16]{};
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_received = 0;

  [[nodiscard]] std::uint64_t on_wire(MsgType t) const {
    const auto i = static_cast<std::size_t>(t);
    return sent_attempted[i] - sent_cancelled[i];
  }
};

/// One GCS endpoint per simulated host, layered on that host's TotemNode.
class GcsEndpoint {
 public:
  /// Delivery callbacks are move-only (UniqueFn): facades above GCS
  /// (CausalMessenger, the gateway router, handoff adopters) park
  /// single-owner state — pending completions, coroutine guards — inside
  /// their subscription closures, and the endpoint only ever moves and
  /// invokes them.
  using DeliverFn = UniqueFn<void(const Message&)>;
  using ViewFn = std::function<void(const GroupView&)>;

  GcsEndpoint(sim::Simulator& sim, totem::TotemNode& totem);

  GcsEndpoint(const GcsEndpoint&) = delete;
  GcsEndpoint& operator=(const GcsEndpoint&) = delete;

  /// Announce (via the ordered stream) that local replica `r` joined group
  /// `g`.  Joins are idempotent; every host re-announces its local members
  /// after a Totem membership change so late joiners converge.
  void join_group(GroupId g, ReplicaId r);

  /// Announce that local replica `r` left group `g`.
  void leave_group(GroupId g, ReplicaId r);

  /// Register the local delivery callback for messages addressed to `g`.
  /// Multiple subscribers per group are allowed (e.g. several local
  /// replicas of different groups listening to a connection endpoint).
  void subscribe(GroupId g, DeliverFn fn);

  /// Register a callback for membership changes of group `g`.
  void subscribe_view(GroupId g, ViewFn fn);

  /// Multicast `m` with agreed total order and duplicate suppression.
  /// Returns a handle usable with cancel() while the message is queued.
  /// Payloads larger than the fragment payload limit are transparently split
  /// into kFragment messages and reassembled before delivery (large
  /// checkpoints do not fit one Ethernet frame).
  std::uint64_t send(Message m);

  /// Cancel a queued message (returns false if it already hit the wire).
  bool cancel(std::uint64_t handle);

  /// Current membership of `g` as observed by this host.
  [[nodiscard]] const GroupView& view(GroupId g);

  [[nodiscard]] const GcsStats& stats() const { return stats_; }
  [[nodiscard]] totem::TotemNode& totem() { return totem_; }
  [[nodiscard]] NodeId node_id() const { return totem_.id(); }

  /// The host's lifecycle scope (owned by the underlying TotemNode).  GCS
  /// itself schedules nothing — delivery and view-change callbacks run
  /// synchronously from Totem delivery, which stops the instant the node
  /// crashes — but the layers above (replication, CTS, ORB) reach their
  /// node's scope through this accessor and must schedule node-owned work
  /// there, never directly on the simulator.
  [[nodiscard]] sim::TaskScope& scope() { return totem_.scope(); }

  /// The host's recorder (net::Network::recorder()).  Facades built on
  /// top of the endpoint (CausalMessenger, HandoffStream) count and trace
  /// through it and reach the ordering oracle through oracle().
  [[nodiscard]] obs::Recorder& recorder() const { return rec_; }
  /// The ordering oracle, or nullptr when the recorder has none.
  [[nodiscard]] obs::OrderingOracle* oracle() const { return orc_; }

  /// encode() writes this many bytes ahead of the payload: the header
  /// fields and the payload's u32 length prefix.
  static constexpr std::size_t kHeaderBytes = 1 + 4 * 4 + 8 + 4 + 4 + 4;

  /// Serialize / parse the header+payload wire format (exposed for tests).
  /// decode() takes a span so both Bytes and zero-copy SharedBytes views
  /// parse without materializing a copy first; its payload is a fresh
  /// buffer.  decode_view() parses out of a shared packet and returns a
  /// payload that aliases it — the delivery path, where one batched Totem
  /// frame fans out to N messages with zero per-message copies.
  static Bytes encode(const Message& m);
  static Message decode(std::span<const std::uint8_t> b);
  static Message decode_view(const SharedBytes& packet);

 private:
  // Packed stream identity (conn, type, tag): two u64 halves whose
  // field-wise comparison reproduces the tuple's lexicographic order —
  // conn and type occupy disjoint bit ranges of `hi`, so numeric order on
  // `hi` IS (conn, type) order.  Two word compares instead of three field
  // compares on the per-delivery dedup path.
  struct StreamKey {
    std::uint64_t hi;  // (conn << 8) | type
    std::uint64_t lo;  // tag
    friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
  };
  static constexpr StreamKey stream_key(std::uint32_t conn, std::uint8_t type,
                                        std::uint32_t tag) {
    return StreamKey{(static_cast<std::uint64_t>(conn) << 8) | type, tag};
  }

  // Full logical message identity (conn, type, tag, seq).
  struct MsgIdKey {
    StreamKey stream;
    MsgSeqNum seq;
    friend auto operator<=>(const MsgIdKey&, const MsgIdKey&) = default;
  };

  // Reassembly identity (sender node, conn, type, tag, seq) packed the same
  // way: lexicographic (a, b, seq) == (node, conn, type, tag, seq).
  struct ReasmKey {
    std::uint64_t a;  // (node << 32) | conn
    std::uint64_t b;  // (type << 32) | tag
    MsgSeqNum seq;
    friend auto operator<=>(const ReasmKey&, const ReasmKey&) = default;
  };

  void on_totem_deliver(NodeId sender, const SharedBytes& data);
  void process_message(Message m);
  void on_fragment(const Message& frag);
  void on_totem_view(const totem::View& v);
  void apply_group_join(const Message& m);
  void apply_group_leave(const Message& m);
  void bump_view(GroupId g);

  sim::Simulator& sim_;
  totem::TotemNode& totem_;

  // Flat sorted-vector maps (common/flat_map.hpp): same iteration order as
  // the std::map instances they replace, binary-search lookup without node
  // chasing.  Insert/erase invalidates references — the delivery paths
  // re-find entries after every callback that could mutate these maps.
  FlatMap<GroupId, GroupView> views_;
  FlatMap<GroupId, std::vector<DeliverFn>> subscribers_;
  FlatMap<GroupId, std::vector<ViewFn>> view_subscribers_;
  std::vector<std::pair<GroupId, ReplicaId>> local_members_;

  // Receiver-side duplicate detection: highest seq delivered per stream.
  FlatMap<StreamKey, MsgSeqNum> last_delivered_;

  // Sender-side suppression: queued local copies by logical identity.
  // Large messages queue several totem fragments under one identity.
  struct PendingSend {
    std::uint64_t gcs_handle;
    std::vector<std::uint64_t> totem_handles;
    MsgType type;
  };
  FlatMap<MsgIdKey, PendingSend> pending_;
  std::uint64_t next_handle_ = 1;
  std::size_t max_fragment_payload_ = 1400;

  // Fragment reassembly, keyed by the logical identity of the original
  // message (sender node disambiguates concurrent active-replica copies).
  struct Reassembly {
    std::uint32_t count = 0;
    std::uint32_t next = 0;
    MsgType original_type = MsgType::kUserRequest;
    Bytes data;
  };
  FlatMap<ReasmKey, Reassembly> reassembly_;

  GcsStats stats_;
  obs::Recorder& rec_ = totem_.recorder();
  obs::OrderingOracle* const orc_ = rec_.oracle();
  obs::Counter& c_delivered_ = rec_.counter("gcs.delivered");
  obs::Counter& c_duplicates_ = rec_.counter("gcs.duplicates_dropped");
  obs::Counter& c_cancelled_ = rec_.counter("gcs.sent_cancelled");
  obs::Counter& c_view_changes_ = rec_.counter("gcs.view_changes");
  // gcs.delivered.<type>, indexed by MsgType - 1 so delivery stays
  // map-lookup free.
  std::array<obs::Counter*, kMsgTypes> c_delivered_by_type_{};
};

}  // namespace cts::gcs
