// The Consistent Clock Synchronization (CCS) control message payload.
//
// A CCS message rides the group communication system with header fields
// msg_type = kCcs, src_grp = dst_grp = the replica group, conn = the
// group's CCS connection, tag = the sending thread identifier, and
// msg_seq_num = the CCS round number (paper Section 3.1).  The payload
// carries the local logical clock value that the sender proposes for the
// group clock, plus the clock-call type identifier that distinguishes
// gettimeofday() from time() from ftime() (paper Section 4.1).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace cts::ccs {

/// Which interposed clock-related system call started this round.  Each
/// call gets a unique type identifier so the algorithm can recognize and
/// distinguish them (paper Section 4.1).
enum class ClockCallType : std::uint8_t {
  kGettimeofday = 1,  // microsecond resolution
  kTime = 2,          // whole seconds
  kFtime = 3,         // millisecond resolution
  kClockGettime = 4,  // microsecond resolution (modern POSIX)
};

[[nodiscard]] const char* to_string(ClockCallType t);

/// CCS message payload (paper Section 3.1: "Sending thread identifier" and
/// "Local clock value being proposed for the group clock"; the call-type
/// identifier is the additional field of Section 4.1; the special flag
/// marks the state-transfer round of Section 3.2).
struct CcsPayload {
  ThreadId thread;
  ClockCallType call_type = ClockCallType::kGettimeofday;
  /// Physical hardware clock value + clock offset at the sender, in us.
  Micros proposed_clock = 0;
  /// True for the special round run during state transfer to initialize a
  /// recovering replica's clock.
  bool special_round = false;

  /// Encoded size: thread, call type, proposed clock, special flag.
  static constexpr std::size_t kEncodedBytes = 4 + 1 + 8 + 1;

  [[nodiscard]] Bytes encode() const {
    BytesWriter w;
    w.reserve(kEncodedBytes);
    w.u32(thread.value);
    w.u8(static_cast<std::uint8_t>(call_type));
    w.i64(proposed_clock);
    w.boolean(special_round);
    return std::move(w).take();
  }

  static CcsPayload decode(std::span<const std::uint8_t> b) {
    BytesReader r(b);
    CcsPayload p;
    p.thread = ThreadId{r.u32()};
    p.call_type = static_cast<ClockCallType>(r.u8());
    p.proposed_clock = r.i64();
    p.special_round = r.boolean();
    return p;
  }
};

}  // namespace cts::ccs
