// Hash-chained checkpoint batches.
//
// Every checkpoint a replica takes appends one header to an append-only
// chain: the header names how many requests the snapshot covers, a digest
// of the snapshot bytes, and a link value hashing the previous header into
// this one.  A kState payload ships the snapshot TOGETHER with the chain,
// so a recovering replica verifies the prefix hash — the chain links
// recompute and the final digest matches the snapshot it is about to adopt
// — instead of blindly installing whatever bytes arrived (paper Section
// 3.2's state transfer, hardened the way block-oriented ledgers chain
// their block headers).
//
// Wire format of a chained checkpoint (the kState payload, PROTOCOL.md §5):
//
//   snapshot   bytes      length-prefixed full checkpoint (§5.3)
//   count      u32        number of chain headers (≥ 1)
//   headers    count ×    { upto u64, digest u64, parent u64, link u64 }
//
// Invariants a verifier checks:
//   * headers[i].parent == headers[i-1].link          (the chain links)
//   * headers[i].link   == chain_link(header[i])      (links recompute)
//   * headers.back().digest == fnv1a64(snapshot)      (snapshot matches)
//
// The chain is bounded: only the newest kMaxHeaders links are kept (the
// oldest retained header's parent is the trusted base).  Deterministic
// processing means replicas that checkpoint at the same ordered points
// build identical chains; a recovering replica adopts the serving
// replica's chain wholesale along with the snapshot.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace cts::replication {

/// One link of the hash-chained checkpoint history.
struct CheckpointHeader {
  std::uint64_t upto = 0;    // requests covered by the snapshot
  std::uint64_t digest = 0;  // fnv1a64 of the serialized snapshot
  std::uint64_t parent = 0;  // link of the previous header (0 at the base)
  std::uint64_t link = 0;    // chain_link() over the three fields above

  friend bool operator==(const CheckpointHeader&, const CheckpointHeader&) = default;
};

/// The link value: fnv1a64 over the serialized (upto, digest, parent), so
/// a header can neither be reordered nor altered without breaking every
/// later link.  The 24 bytes are laid out as BytesWriter::u64 would write
/// them, in a stack buffer: a verifier computes one link per header.
[[nodiscard]] inline std::uint64_t chain_link(std::uint64_t upto, std::uint64_t digest,
                                              std::uint64_t parent) {
  std::uint8_t buf[24];
  store_u64le(buf, upto);
  store_u64le(buf + 8, digest);
  store_u64le(buf + 16, parent);
  return fnv1a64(buf);
}

/// Append a header covering `upto` requests of `snapshot` to `chain`,
/// unless the newest header already describes exactly this snapshot (a
/// checkpoint re-taken at an unchanged point is not a new link).  Keeps at
/// most `max_headers` links, dropping the oldest.
inline void extend_chain(std::vector<CheckpointHeader>& chain, std::uint64_t upto,
                         std::span<const std::uint8_t> snapshot,
                         std::size_t max_headers = 64) {
  const std::uint64_t digest = fnv1a64(snapshot);
  if (!chain.empty() && chain.back().upto == upto && chain.back().digest == digest) return;
  CheckpointHeader h;
  h.upto = upto;
  h.digest = digest;
  h.parent = chain.empty() ? 0 : chain.back().link;
  h.link = chain_link(h.upto, h.digest, h.parent);
  chain.push_back(h);
  if (chain.size() > max_headers) {
    chain.erase(chain.begin(), chain.end() - static_cast<std::ptrdiff_t>(max_headers));
  }
}

/// Serialize snapshot + chain into one kState payload.
[[nodiscard]] inline Bytes encode_chained_checkpoint(std::span<const std::uint8_t> snapshot,
                                                     const std::vector<CheckpointHeader>& chain) {
  BytesWriter w;
  w.reserve(snapshot.size() + 8 + chain.size() * 32);
  w.bytes(snapshot);
  w.u32(static_cast<std::uint32_t>(chain.size()));
  for (const auto& h : chain) {
    w.u64(h.upto);
    w.u64(h.digest);
    w.u64(h.parent);
    w.u64(h.link);
  }
  return std::move(w).take();
}

/// A decoded chained checkpoint; `snapshot` aliases the input payload.
struct DecodedCheckpoint {
  std::span<const std::uint8_t> snapshot;
  std::vector<CheckpointHeader> headers;
};

/// Parse a chained-checkpoint payload.  Returns nullopt if the payload is
/// malformed (truncated, trailing garbage, or carries no headers).
[[nodiscard]] inline std::optional<DecodedCheckpoint> decode_chained_checkpoint(
    std::span<const std::uint8_t> payload) {
  try {
    BytesReader r(payload);
    const std::uint32_t snap_len = r.u32();
    const std::size_t snap_off = r.pos();
    r.skip(snap_len);
    DecodedCheckpoint d;
    d.snapshot = payload.subspan(snap_off, snap_len);
    const std::uint32_t n = r.u32();
    if (n == 0) return std::nullopt;
    d.headers.reserve(std::min<std::size_t>(n, r.remaining() / 32));
    for (std::uint32_t i = 0; i < n; ++i) {
      CheckpointHeader h;
      h.upto = r.u64();
      h.digest = r.u64();
      h.parent = r.u64();
      h.link = r.u64();
      d.headers.push_back(h);
    }
    if (!r.done()) return std::nullopt;  // exact-length framing
    return d;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

/// Verify a decoded chained checkpoint: every link recomputes, consecutive
/// headers chain parent-to-link, covered counts never decrease, and the
/// newest header's digest matches the shipped snapshot.  O(headers + |snapshot|).
[[nodiscard]] inline bool verify_chained_checkpoint(const DecodedCheckpoint& d) {
  if (d.headers.empty()) return false;
  for (std::size_t i = 0; i < d.headers.size(); ++i) {
    const CheckpointHeader& h = d.headers[i];
    if (h.link != chain_link(h.upto, h.digest, h.parent)) return false;
    if (i > 0 && (h.parent != d.headers[i - 1].link || h.upto < d.headers[i - 1].upto)) {
      return false;
    }
  }
  return d.headers.back().digest == fnv1a64(d.snapshot);
}

}  // namespace cts::replication
