// Totem single-ring reliable totally-ordered multicast protocol.
//
// This is the group communication substrate the paper builds on (reference
// [1], Amir et al., "The Totem single-ring ordering and membership
// protocol", ACM TOCS 1995).  One TotemNode runs per simulated host, as in
// the paper's testbed ("four copies of Totem run on the four PCs, one for
// each PC").
//
// Implemented protocol features:
//   * token-passing logical ring ordered by node id; lowest id = ring leader;
//   * agreed delivery: every member delivers the same messages in the same
//     total order (token sequence numbers, gap-free);
//   * retransmission requests carried on the token (recovers lost packets);
//   * token retransmission by the previous holder (recovers lost tokens
//     without tearing the ring down);
//   * membership: token-loss timeout or a foreign/join message moves a node
//     to the Gather state; members exchange Join messages, the lowest-id
//     candidate commits a new ring, old-ring messages are recovered before
//     the new configuration is installed (virtual synchrony among
//     survivors);
//   * primary-component model: a configuration is primary iff it contains a
//     strict majority of the configured universe of nodes — only the
//     primary component may continue multicasting (Section 2 of the paper);
//   * sender-side cancellation of queued messages (used by the replication
//     layer's duplicate suppression, the mechanism behind the paper's
//     1 / 9,977 / 22 CCS-message counts).
//
//   * agreed AND safe delivery classes (safe = held until the token's aru
//     confirms group-wide reception over two rotations);
//   * stable-message discard: the same two-rotation horizon frees every
//     message all members hold, so the store keeps only the in-flight
//     window however long the ring lives;
//   * packet envelope with magic + checksum (corrupt datagrams dropped);
//   * batched message path: every message a node originates during one
//     token visit rides ONE batch frame (kBatch), sealed by a single
//     envelope — one checksum, one datagram, per-message zero-copy slices
//     on the receive side.  Retransmissions (token rtr service) stay
//     per-message kMcast frames so one lost original doesn't couple the
//     recovery of its batch-mates.
//
// Simplifications relative to full Totem (documented in DESIGN.md): no
// multiple-ring gateways; flow control is a fixed per-token window.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "sim/task_scope.hpp"

namespace cts::totem {

/// Identifies a ring configuration; strictly increasing across changes.
using RingId = std::uint64_t;

/// Membership universe and flow-control knobs.  The protocol's timeouts are
/// fixed constants (totem.cpp, doc/PROTOCOL.md §2).
struct TotemConfig {
  /// All nodes that could ever join; a configuration is "primary" iff it
  /// holds a strict majority of this universe.
  std::vector<NodeId> universe;

  /// Max new messages broadcast per token visit (flow control).
  int max_messages_per_token = 8;
  /// Global cap on messages broadcast per full token rotation (Totem's
  /// fcc-based flow control): the token carries the number of messages
  /// broadcast in the current rotation, and a node may only add up to the
  /// remaining budget.  Bounds ring congestion under a flooding sender.
  int window_per_rotation = 64;
};

/// Delivery guarantee requested for a multicast message (Totem [1]).
///
///   * kAgreed — delivered once all messages with lower sequence numbers
///     have been delivered: total order, the guarantee the CCS algorithm
///     requires.
///   * kSafe — additionally held until the token's all-received-up-to
///     field confirms, over two successive rotations, that EVERY member of
///     the configuration holds the message.  Slower (≈ two extra token
///     rotations) but a crash can no longer erase a delivered message from
///     history.  Because delivery respects the total order, a safe message
///     also delays the agreed messages sequenced after it.
enum class DeliveryClass : std::uint8_t { kAgreed = 0, kSafe = 1 };

/// A configuration (view) installed by the membership protocol.
struct View {
  RingId ring_id = 0;
  std::vector<NodeId> members;  // sorted ascending; members[0] is the leader
  bool primary = false;         // strict majority of the universe
};

/// Per-node protocol statistics.
struct TotemStats {
  std::uint64_t tokens_sent = 0;
  std::uint64_t tokens_received = 0;
  std::uint64_t token_retransmissions = 0;
  std::uint64_t msgs_multicast = 0;      // user messages this node put on the wire
  std::uint64_t msgs_retransmitted = 0;  // in response to token rtr requests
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_cancelled = 0;  // cancelled while still queued
  std::uint64_t membership_changes = 0;
  std::uint64_t window_stalls = 0;      // token visits that left the send queue non-empty
  std::uint64_t batch_frames_sent = 0;  // kBatch frames put on the wire
  std::uint64_t msgs_discarded = 0;     // stable messages erased from the store
  // Token rtr entries at or below this node's discard floor.  Nonzero means
  // a member asked for a message the ring had declared stable: the
  // stability horizon was wrong.  Logged, never absorbed.
  std::uint64_t rtr_below_floor = 0;
  // Recoveries that installed the new ring with a hole below the old
  // ring's high mark after the bounded retries ran out: the messages above
  // the hole are dropped at this node.  Logged and traced.
  std::uint64_t recovery_gave_up = 0;
  // Received packets dropped before any handler ran: at the envelope
  // (short, foreign magic, checksum mismatch) or in the body parser
  // (truncated, trailing garbage, bad field).  Not exported as metrics.
  std::uint64_t packets_rejected_envelope = 0;
  std::uint64_t packets_rejected_body = 0;

  friend bool operator==(const TotemStats&, const TotemStats&) = default;
};

/// The sealed-envelope checksum of a Totem packet: word_hash32 over the
/// body, every byte after the 8-byte [magic u32][checksum u32] envelope
/// (PROTOCOL.md §2.1).  Encoders patch it in; every receiver recomputes it.
[[nodiscard]] std::uint32_t envelope_checksum(std::span<const std::uint8_t> packet);

/// One Totem protocol instance (one per simulated host).
class TotemNode {
 public:
  /// Delivery callback: (sender node, payload).  Called in agreed total
  /// order, identical at every member of the configuration.  The payload
  /// is a zero-copy slice of the packet it arrived in.
  using DeliverFn = std::function<void(NodeId, const SharedBytes&)>;
  /// View-change callback, called when a new configuration is installed.
  using ViewFn = std::function<void(const View&)>;

  enum class State { kDown, kGather, kRecover, kOperational };

  TotemNode(sim::Simulator& sim, net::Network& net, NodeId id, TotemConfig cfg);
  ~TotemNode();

  TotemNode(const TotemNode&) = delete;
  TotemNode& operator=(const TotemNode&) = delete;

  /// The node's lifecycle scope.  The Totem daemon is the per-host root of
  /// the protocol stack (one per PC in the paper's testbed), so it owns the
  /// host's scope; every higher layer (GCS, replication, CTS, ORB) reaches
  /// it through accessor chains and schedules its node-owned work here.
  /// `scope().shutdown()` is the fail-stop crash switch (crash() is the
  /// same call): it runs the layers' shutdown hooks (this daemon's hook
  /// takes the node off the ring and drops its protocol state) and cancels
  /// every timer, in-flight delivery, and parked resume the node owns.
  [[nodiscard]] sim::TaskScope& scope() { return scope_; }

  /// Boot the node: attaches to the network and starts forming a ring.
  void start();

  /// Fail-stop crash of the whole host: `scope().shutdown()`.
  void crash() { scope_.shutdown(); }

  /// Restart after a crash; rejoins whatever ring it discovers.
  void restart();

  /// Queue a message for totally-ordered multicast with the requested
  /// delivery guarantee.  Returns a local handle that can cancel the
  /// message while it is still queued.  If this node is not in a primary
  /// component, the message stays queued until the node rejoins one
  /// (primary-component model).
  std::uint64_t multicast(Bytes payload, DeliveryClass dc = DeliveryClass::kAgreed);

  /// Cancel a queued message.  Returns true if the message had not yet been
  /// put on the wire (and therefore will never be delivered).
  bool cancel(std::uint64_t handle);

  void set_deliver_handler(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_view_handler(ViewFn fn) { view_cb_ = std::move(fn); }
  /// Instrumentation hook: invoked on every (non-duplicate) token receipt.
  /// Used by the token-latency benchmark.
  void set_token_observer(std::function<void()> fn) { token_obs_ = std::move(fn); }

  /// The recorder of this node's network (net::Network::recorder()).
  [[nodiscard]] obs::Recorder& recorder() { return rec_; }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const View& view() const { return view_; }
  [[nodiscard]] const TotemStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued() const { return send_queue_.size(); }
  /// Current-ring messages held for retransmission and recovery.
  [[nodiscard]] std::size_t stored() const { return store_.size(); }

 private:
  // --- Wire formats -------------------------------------------------------
  enum class MsgType : std::uint8_t {
    kToken = 1,
    kMcast = 2,  // single message: retransmissions and recovery gap-fill
    kJoin = 3,
    kCommit = 4,
    kBatch = 5,  // all messages one node originated during one token visit
  };

  /// Every Totem packet is wrapped in a magic + checksum envelope so
  /// corrupted or foreign datagrams are dropped instead of being
  /// misinterpreted as protocol messages.  Encoders build the envelope and
  /// body scatter-gather in one buffer (begin/finish helpers in totem.cpp)
  /// rather than sealing a separately-allocated body.
  static bool unseal(const SharedBytes& packet, BytesReader& out_reader);

  struct Token {
    RingId ring_id = 0;
    std::uint64_t token_seq = 0;  // circulation counter: dedups old tokens
    TotemSeq seq = 0;             // highest message seq assigned on this ring
    TotemSeq aru = 0;             // all-received-up-to
    NodeId aru_setter;            // who last lowered aru
    std::uint32_t fcc = 0;        // messages broadcast in the current rotation
    std::vector<TotemSeq> rtr;    // retransmission requests
  };

  struct Mcast {
    RingId ring_id = 0;
    TotemSeq seq = 0;
    NodeId sender;
    bool recovery = false;  // rebroadcast of an old-ring message
    DeliveryClass delivery = DeliveryClass::kAgreed;
    // Received messages hold an aliasing slice of the sealed packet they
    // arrived in (zero copy); locally originated ones own their buffer.
    SharedBytes payload;
  };

  struct Join {
    NodeId sender;
    std::vector<NodeId> perceived;  // who the sender believes is alive
    RingId old_ring_id = 0;
    TotemSeq my_aru = 0;
    TotemSeq high_seq = 0;
  };

  struct CommitMember {
    NodeId node;
    RingId old_ring_id = 0;
    TotemSeq aru = 0;
    TotemSeq high_seq = 0;
  };

  struct Commit {
    RingId new_ring_id = 0;
    std::vector<CommitMember> members;
  };

  static Bytes encode_token(const Token& t);
  static Bytes encode_mcast(const Mcast& m);
  static Bytes encode_join(const Join& j);
  static Bytes encode_commit(const Commit& c);
  /// One frame carrying `msgs` in sequence order.  The frame-level
  /// `recovery` flag applies to every entry (a node only ever batches
  /// all-new or all-recovery messages).
  static Bytes encode_batch(std::span<const Mcast> msgs, RingId ring_id, bool recovery);

  // --- Packet handling -----------------------------------------------------
  void on_packet(NodeId src, const SharedBytes& data);
  void handle_token(Token tok);
  /// A kMcast frame is a batch of one.
  void handle_batch(RingId ring_id, std::span<Mcast> msgs);
  void handle_join(const Join& j);
  void handle_commit(const Commit& c);

  // --- Operational state ----------------------------------------------------
  void send_token_to_successor(Token tok);
  void store_and_deliver(Mcast m);
  void deliver_contiguous();
  void reset_token_loss_timer();
  void arm_token_retrans();
  [[nodiscard]] NodeId successor() const;
  [[nodiscard]] bool in_members(NodeId n, const std::vector<NodeId>& members) const;

  /// The scope's shutdown hook: leave the ring and drop protocol state.
  /// The scope's sweep then cancels every timer this node armed.
  void go_down();
  /// Forget the current ring's messages and token bookkeeping (crash and
  /// install).
  void clear_ring_state();

  // --- Membership ------------------------------------------------------------
  void enter_gather(const char* reason);
  void arm_gather_timer();
  void broadcast_join();
  void on_gather_deadline();
  void begin_recovery(const Commit& c);
  void finish_recovery();
  void install(const View& v);

  [[nodiscard]] bool is_primary(const std::vector<NodeId>& members) const;

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  TotemConfig cfg_;
  // The host's lifecycle scope (see scope()).  Declared after the refs it
  // captures; owns no protocol state of its own.
  sim::TaskScope scope_;

  State state_ = State::kDown;
  View view_;

  // Current-ring message store: seq -> message; my_aru = contiguous prefix.
  // Holds (discarded_up_to_, highest seq received]: on every token visit the
  // prefix every member holds and this node has delivered is erased as one
  // range (see handle_token), so only the in-flight window stays resident.
  // FlatMap fits this workload exactly: seqs arrive near-monotonically (an
  // insert is almost always an append at the back), erasure is a short
  // prefix, and the hot operations (contains of aru+1, find of the next
  // undelivered seq) are binary searches over a contiguous vector.
  FlatMap<TotemSeq, Mcast> store_;
  TotemSeq my_aru_ = 0;
  TotemSeq delivered_up_to_ = 0;
  // Discard floor: every seq at or below it has been erased from store_.
  TotemSeq discarded_up_to_ = 0;
  std::uint64_t last_token_seq_ = 0;

  // Safe-delivery horizon: min of the token aru over the last two visits —
  // once aru has held at s across a full rotation, every member holds all
  // messages up to s.
  TotemSeq token_aru_prev_ = 0;
  TotemSeq token_aru_last_ = 0;
  // Flow control: how many messages we broadcast at our previous token
  // visit (aged out of the token's fcc when it returns).
  std::uint32_t last_sent_on_token_ = 0;
  bool transitional_flush_ = false;  // recovery: deliver pending safe msgs

  // Outgoing queue with cancellation handles.
  struct Queued {
    std::uint64_t handle;
    DeliveryClass delivery;
    Bytes payload;
  };
  std::deque<Queued> send_queue_;
  std::uint64_t next_handle_ = 1;

  // Timers.  Each is nothing but its EventId: an id goes stale once its
  // event fires or is cancelled, and cancel/reschedule on a stale id do
  // nothing, so no timer needs an "armed" flag beside it.
  sim::Simulator::EventId token_loss_timer_{};
  sim::Simulator::EventId token_retrans_timer_{};
  sim::Simulator::EventId gather_timer_{};
  sim::Simulator::EventId commit_timer_{};
  sim::Simulator::EventId recovery_timer_{};
  sim::Simulator::EventId seek_timer_{};

  // Token retransmission: last token I forwarded.
  std::optional<Token> last_sent_token_;
  int token_retrans_attempts_ = 0;

  // Gather state.
  FlatMap<NodeId, Join> joins_;
  FlatSet<NodeId> perceived_;

  // Recovery state.
  Commit pending_commit_;
  // Highest old-ring seq any surviving member reported; install is delayed
  // (bounded retries) until our contiguous store reaches it, so a lost
  // recovery rebroadcast cannot silently punch a hole in the delivered
  // sequence.
  TotemSeq recovery_target_ = 0;
  int recovery_attempts_ = 0;

  // Ring ids this node has been part of or seen; foreign-mcast detection
  // ignores these so stray recovery rebroadcasts don't re-trigger gather.
  FlatSet<RingId> known_rings_;
  RingId max_ring_seen_ = 0;

  DeliverFn deliver_;
  ViewFn view_cb_;
  std::function<void()> token_obs_;
  TotemStats stats_;
  obs::Recorder& rec_ = net_.recorder();
  obs::Counter& c_token_pass_ = rec_.counter("totem.token_passes");
  obs::Counter& c_rotations_ = rec_.counter("totem.token_rotations");
  obs::Counter& c_token_retrans_ = rec_.counter("totem.token_retransmissions");
  obs::Counter& c_msg_retrans_ = rec_.counter("totem.msgs_retransmitted");
  obs::Counter& c_delivered_ = rec_.counter("totem.msgs_delivered");
  obs::Counter& c_ring_changes_ = rec_.counter("totem.ring_changes");
  obs::Counter& c_window_stalls_ = rec_.counter("totem.window_stalls");
  obs::Counter& c_batch_frames_ = rec_.counter("totem.batch_frames_sent");
};

}  // namespace cts::totem
