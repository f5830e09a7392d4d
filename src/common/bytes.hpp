// Byte-level message codec.
//
// Every protocol message in the system (Totem tokens, regular messages, CCS
// control messages, checkpoints) is serialized through these two helpers so
// that what crosses the simulated wire is a flat byte buffer — exactly what
// would cross a real network.  Encoding is little-endian fixed-width.
#pragma once

#include <algorithm>
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

/// 8-byte flavor for word-at-a-time scans (the oracle's payload
/// fingerprint).  `p` must point at 8 readable bytes.
inline std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 8-byte store, the same bytes BytesWriter::u64 appends (checkpoint-chain
/// links hash a header from a stack buffer).  `p` must point at 8
/// writable bytes.
inline void store_u64le(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// FNV-1a over a byte range, starting at offset `from`.  The 32-bit flavor
/// seals packet envelopes (Totem's magic+checksum header); the 64-bit
/// flavor links checkpoint-chain headers (see src/replication).  `seed`
/// lets the 64-bit flavor chain over multiple inputs.
inline std::uint32_t fnv1a32(std::span<const std::uint8_t> data, std::size_t from = 0) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = from; i < data.size(); ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

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

  std::string str() {
    const auto n = u32();
    require(n);
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
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
