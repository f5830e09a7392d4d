// Byte-level message codec.
//
// Every protocol message in the system (Totem tokens, regular messages, CCS
// control messages, checkpoints) is serialized through these two helpers so
// that what crosses the simulated wire is a flat byte buffer — exactly what
// would cross a real network.  Encoding is little-endian fixed-width.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cts {

using Bytes = std::vector<std::uint8_t>;

/// An immutable, refcounted view of a byte buffer.
///
/// The zero-copy payload type of the delivery path: a broadcast allocates
/// its payload once and every receiver's in-flight packet shares it; a
/// Totem multicast payload is an aliasing slice() of the sealed packet it
/// arrived in.  Copying a SharedBytes bumps a refcount; the underlying
/// buffer is freed when the last view drops.
///
/// Ownership rules (see doc/PERFORMANCE.md):
///   * the wrapped buffer is immutable for the lifetime of every view —
///     mutation paths (e.g. corruption injection) must materialize a fresh
///     buffer (copy-on-write) rather than write through a view;
///   * slice() aliases the parent buffer: it keeps the WHOLE parent alive,
///     which is the right trade for packet payloads (packet and payload
///     die together) but wrong for long-lived small slices of huge buffers
///     — materialize with to_bytes() in that case.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Wrap a buffer, taking ownership.  Implicit, so APIs migrated from
  /// `const Bytes&` to `SharedBytes` keep accepting Bytes rvalues.
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor)
      : owner_(std::make_shared<const Bytes>(std::move(b))),
        data_(owner_->data()),
        size_(owner_->size()) {}

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] std::span<const std::uint8_t> span() const { return {data_, size_}; }

  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

  /// Aliasing sub-view: shares (and keeps alive) the parent buffer.
  /// `offset + len` must be within size().
  [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t len) const {
    SharedBytes out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  /// Deep copy into a plain mutable buffer.
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Thrown by BytesReader when a read runs past the end of the buffer or a
/// length prefix is inconsistent — i.e. the message is malformed.  Every
/// out-of-bounds access fails through this explicit error path; there is
/// deliberately no assert-based (NDEBUG-vanishing) variant, because a
/// malformed packet must be rejected identically in Debug and Release.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// The repository's single audited type-punning site: fixed-width
/// little-endian loads/stores for envelope fields that are written after
/// the fact (e.g. a checksum patched over a serialized packet).  All other
/// code must go through BytesWriter/BytesReader or these helpers — raw
/// memcpy/reinterpret_cast elsewhere is a detlint error.
///
/// The caller is responsible for bounds: `p` must point at 4 readable
/// (resp. writable) bytes.
inline std::uint32_t load_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_u32le(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

/// 8-byte flavor for word-at-a-time scans (word_hash64).  `p` must point at 8 readable bytes.
inline std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 8-byte store, the same bytes BytesWriter::u64 appends (checkpoint-chain
/// links hash a header from a stack buffer).  `p` must point at 8
/// writable bytes.
inline void store_u64le(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Two hash families live here, and they are not interchangeable.
///
///   * Integrity hashes (word_hash32, word_hash64) check bytes this process
///     produced a moment ago and will check again: the Totem envelope seal
///     (32-bit), the checkpoint-chain digests and links (64-bit), the
///     ordering oracle's payload fingerprints (64-bit).  Their values never
///     leave the run, so they are free to be fast.
///   * Exported digests (fnv1a64, fnv1a64_fold) name state across runs and
///     tools: Replica::state_digest, TimeServerApp::state_digest, the
///     scenario export digest, shard placement, benchmark reply digests.
///     Their values are pinned; do not swap the algorithm.
///
/// The word hashes run four independent lanes over little-endian words.
/// Each lane step is `lane = rotl((lane ^ word) * odd, r)`: the XOR, the
/// multiply by an odd constant and the rotation are each bijections, in the
/// lane and in the word.  The final (partial, zero-padded) tail word has the
/// input length folded in; the lanes are combined by XOR and finished with a
/// bijective avalanche.  So two inputs of the same length that differ only
/// inside one word — every single-bit flip, every single-byte change — get
/// different hashes, by construction, as with FNV-1a.  The rotation keeps a
/// difference confined to a lane's top bit from cancelling against a second
/// one in a later word of the same lane.
namespace detail {

template <typename W>
inline W load_word_le(const std::uint8_t* p) {
  if constexpr (sizeof(W) == 4) {
    return load_u32le(p);
  } else {
    return load_u64le(p);
  }
}

template <typename W>
struct WordHashConstants;

template <>
struct WordHashConstants<std::uint32_t> {
  static constexpr std::uint32_t kMul[4] = {0x9e3779b1u, 0x85ebca77u, 0xc2b2ae3du, 0x27d4eb2fu};
  static constexpr int kRot = 15;
  static constexpr std::uint32_t fmix(std::uint32_t h) {  // murmur3's bijective finalizer
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    return h ^ (h >> 16);
  }
};

template <>
struct WordHashConstants<std::uint64_t> {
  static constexpr std::uint64_t kMul[4] = {0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full,
                                            0x165667b19e3779f9ull, 0xff51afd7ed558ccdull};
  static constexpr int kRot = 31;
  static constexpr std::uint64_t fmix(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
  }
};

template <typename W>
inline W word_hash(std::span<const std::uint8_t> data) {
  using C = WordHashConstants<W>;
  constexpr std::size_t kW = sizeof(W);
  const auto step = [](W lane, W word, W mul) {
    return std::rotl(static_cast<W>((lane ^ word) * mul), C::kRot);
  };
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  W l0 = C::kMul[3], l1 = C::kMul[2], l2 = C::kMul[1], l3 = C::kMul[0];
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    l0 = step(l0, load_word_le<W>(p + i), C::kMul[0]);
    l1 = step(l1, load_word_le<W>(p + i + kW), C::kMul[1]);
    l2 = step(l2, load_word_le<W>(p + i + 2 * kW), C::kMul[2]);
    l3 = step(l3, load_word_le<W>(p + i + 3 * kW), C::kMul[3]);
  }
  if (i + kW <= n) l0 = step(l0, load_word_le<W>(p + i), C::kMul[0]), i += kW;
  if (i + kW <= n) l1 = step(l1, load_word_le<W>(p + i), C::kMul[1]), i += kW;
  if (i + kW <= n) l2 = step(l2, load_word_le<W>(p + i), C::kMul[2]), i += kW;
  // The tail word: the last n - i (< kW) bytes, zero-padded, read without
  // touching a byte past the end.
  W tail = 0;
  for (std::size_t shift = 0; i < n; ++i, shift += 8) tail |= static_cast<W>(p[i]) << shift;
  l3 = step(l3, tail ^ static_cast<W>(static_cast<W>(n) * C::kMul[0]), C::kMul[3]);
  return C::fmix(l0 ^ l1 ^ l2 ^ l3);
}

}  // namespace detail

/// 32-bit integrity hash: the Totem envelope checksum.
inline std::uint32_t word_hash32(std::span<const std::uint8_t> data) {
  return detail::word_hash<std::uint32_t>(data);
}

/// 64-bit integrity hash: checkpoint-chain digests and links, and the
/// ordering oracle's payload fingerprints.
inline std::uint64_t word_hash64(std::span<const std::uint8_t> data) {
  return detail::word_hash<std::uint64_t>(data);
}

/// FNV-1a over a byte range — the exported-digest hash (see above).
/// `seed` chains it over multiple inputs.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Combine `v` into the running hash `h` (the replicated apps' state digests).
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Fold `w`'s eight little-endian bytes into the running fnv1a64 hash `h`.
inline std::uint64_t fnv1a64_fold(std::uint64_t h, std::uint64_t w) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(w >> (8 * i));
  return fnv1a64(b, h);
}

/// Appends fixed-width little-endian values to a growing byte buffer.
class BytesWriter {
 public:
  BytesWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Unprefixed raw append — the scatter-gather path.  A frame encoder
  /// gathers several source buffers (envelope, per-message headers,
  /// payload slices) into one wire buffer without an intermediate
  /// concatenation buffer per source.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Grow the buffer's capacity by `additional` bytes beyond what is
  /// already written.  Scatter-gather encoders sum their source sizes up
  /// front so the whole gather lands in a single allocation.
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  /// Patch a u32 at an absolute offset inside the already-written buffer —
  /// for envelope fields whose value is only known once the body is in
  /// place (a checksum over the bytes that follow it).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    assert(offset + sizeof(v) <= buf_.size());
    store_u32le(buf_.data() + offset, v);
  }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put(T v) {
    std::uint8_t tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  Bytes buf_;
};

/// Reads fixed-width little-endian values from a byte buffer; throws
/// CodecError on truncation.
class BytesReader {
 public:
  explicit BytesReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    const auto n = u32();
    require(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() { return std::string(str_view()); }

  /// str() without the copy: a view into the buffer this reader was
  /// constructed over, valid for as long as that buffer is.
  std::string_view str_view() {
    const auto n = u32();
    require(n);
    const std::string_view out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  /// Skip `n` bytes (e.g. an envelope already validated by the caller);
  /// throws CodecError if fewer than `n` remain.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  /// Number of unread bytes remaining.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  /// Current read offset from the start of the buffer this reader was
  /// constructed over.  Lets zero-copy consumers convert "where the reader
  /// is" into a SharedBytes::slice() of the enclosing packet.
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n) const {
    // Compare against the remaining count rather than `pos_ + n`: a hostile
    // length prefix near SIZE_MAX must not wrap the addition and sneak past
    // the bound (pos_ <= size() is an invariant, so the subtraction is safe).
    if (n > data_.size() - pos_) {
      throw CodecError("truncated message: need " + std::to_string(n) + " bytes, have " +
                       std::to_string(data_.size() - pos_));
    }
  }

  template <typename T>
  T get() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cts
