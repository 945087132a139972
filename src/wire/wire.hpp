/// \file
/// The byte-level wire layer: a versioned, endian-stable binary encoding
/// shared by every snapshot (engine state, sketch state, detector
/// checkpoints) that crosses a process or machine boundary.
///
/// Design rules:
///  * every multi-byte integer is little-endian, written byte by byte, so
///    the encoding is identical on any host (endian-stable by
///    construction, not by `#if`);
///  * doubles travel as their IEEE-754 bit pattern (exact round trip);
///  * decoding NEVER trusts the input: every read is bounds-checked and
///    every structural violation throws a typed WireFormatError — corrupt
///    or adversarial bytes must produce an error, not UB;
///  * the layer has no dependencies beyond the standard library, so any
///    header in the library may expose `save_state(wire::Writer&)` /
///    `load_state(wire::Reader&)` hooks without cycles.
///
/// Framing (magic, version, kind, CRC) lives one level up in
/// wire/snapshot.hpp; this header is only the primitive encoder/decoder.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hhh::wire {

/// Typed decode/validation failure classes. Every snapshot-reading path
/// reports one of these through WireFormatError — callers can branch on
/// the class without parsing message strings.
enum class WireError : std::uint8_t {
  kTruncated = 1,        ///< input ended before a declared field/frame
  kBadMagic = 2,         ///< frame does not start with the snapshot magic
  kBadVersion = 3,       ///< frame written by an unknown format version
  kBadCrc = 4,           ///< checksum mismatch (bit rot / torn write)
  kBadValue = 5,         ///< a decoded value violates a structural invariant
  kParamsMismatch = 6,   ///< snapshot params differ from the receiving object
  kUnsupportedEngine = 7,///< engine kind unknown or not wire-constructible
  kTrailingBytes = 8,    ///< input continues past the end of the frame
};

/// Stable lower-case name of a WireError ("truncated", "bad_crc", ...).
const char* to_string(WireError e) noexcept;

/// The payload-encoding version this build writes. Version history:
///  * 1 — IPv4-only payloads (hierarchies without a family byte, prefixes
///    as packed 64-bit keys);
///  * 2 — address-family-generic payloads (hierarchy carries a family
///    byte, prefixes are family-tagged, IPv6 keys are 128-bit);
///  * 3 — exact-engine payloads carry the leaf level only (the upper
///    levels are sums of it); every other payload is shaped as in 2.
/// Readers accept versions [kWireMinVersion, kWireVersion]; a Reader
/// carries the frame's version so shared codecs can decode every shape.
inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::uint16_t kWireMinVersion = 1;

/// The exception every decode/validation failure in the wire layer throws.
class WireFormatError : public std::runtime_error {
 public:
  /// An error of class `code` with a human-readable detail message.
  WireFormatError(WireError code, const std::string& detail);

  /// The machine-checkable error class.
  WireError code() const noexcept { return code_; }

 private:
  WireError code_;
};

/// Append-only little-endian encoder over a caller-owned byte vector.
class Writer {
 public:
  /// Encoder appending to `out` (not owned; must outlive the Writer).
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  /// Append one byte.
  void u8(std::uint8_t v) { out_->push_back(v); }
  /// Append a 16-bit integer, little-endian.
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  /// Append a 32-bit integer, little-endian.
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  /// Append a 64-bit integer, little-endian.
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  /// Append a signed 64-bit integer (two's-complement bit pattern).
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Append an IEEE-754 double as its 64-bit pattern (exact round trip).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Append a bool as one byte (0/1).
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Append an unsigned LEB128 varint (1 byte for values < 128, at most
  /// 10 bytes) — the compact-payload workhorse (delta-encoded v6 keys,
  /// counter values that are usually small).
  void var_u64(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  /// Append a length-prefixed (u32) byte string.
  void str(std::string_view s);
  /// Append `len` raw bytes.
  void raw(const void* data, std::size_t len);

  /// Bytes written to the target so far (including pre-existing content).
  std::size_t size() const noexcept { return out_->size(); }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian decoder over a caller-owned byte span.
///
/// Every accessor throws WireFormatError{kTruncated} when the input is
/// exhausted; higher layers add structural validation on top.
class Reader {
 public:
  /// Decoder over `data` (not owned; must outlive the Reader). `version`
  /// is the payload-encoding version the bytes were written under
  /// (snapshot framing passes the frame header's version; in-process
  /// round-trips default to the current version).
  explicit Reader(std::span<const std::uint8_t> data,
                  std::uint16_t version = kWireVersion)
      : data_(data), version_(version) {}

  /// The payload-encoding version this Reader decodes under.
  std::uint16_t version() const noexcept { return version_; }

  /// Read one byte.
  std::uint8_t u8();
  /// Read a little-endian 16-bit integer.
  std::uint16_t u16();
  /// Read a little-endian 32-bit integer.
  std::uint32_t u32();
  /// Read a little-endian 64-bit integer.
  std::uint64_t u64();
  /// Read a signed 64-bit integer.
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// Read an IEEE-754 double from its 64-bit pattern.
  double f64() { return std::bit_cast<double>(u64()); }
  /// Read a bool; any byte other than 0/1 throws kBadValue.
  bool boolean();
  /// Read an unsigned LEB128 varint; more than 10 bytes or bits beyond
  /// the 64th throw kBadValue.
  std::uint64_t var_u64();
  /// Read a u32-length-prefixed byte string.
  std::string str();
  /// Copy `len` raw bytes into `dst`.
  void raw(void* dst, std::size_t len);
  /// The unconsumed bytes, in place (no copy, nothing consumed). Hot
  /// decode loops parse this with a local cursor and then commit with
  /// skip() — one bounds check per record instead of one per byte.
  std::span<const std::uint8_t> peek_rest() const noexcept { return data_.subspan(pos_); }
  /// Consume `len` bytes previously parsed via peek_rest(); throws
  /// kTruncated when fewer remain.
  void skip(std::size_t len);

  /// Read a u64 declared as an element count and validate it against the
  /// bytes actually left: a count that could not possibly be satisfied
  /// (count * min_element_bytes > remaining) throws kTruncated instead of
  /// letting a corrupt length drive a multi-gigabyte allocation.
  std::uint64_t count(std::size_t min_element_bytes);

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Bytes consumed so far.
  std::size_t offset() const noexcept { return pos_; }
  /// True when every byte has been consumed.
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint16_t version_ = kWireVersion;
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over a byte range,
/// computed slice-by-8 (eight bytes per table step, any alignment).
/// `seed` chains incremental computations (pass the previous return).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0) noexcept;

/// Throw WireFormatError{code} with `detail` unless `ok`. The validation
/// helper used by every load_state implementation.
inline void check(bool ok, WireError code, const char* detail) {
  if (!ok) throw WireFormatError(code, detail);
}

}  // namespace hhh::wire
