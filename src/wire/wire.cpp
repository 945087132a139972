#include "wire/wire.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/simd.hpp"

namespace hhh::wire {

const char* to_string(WireError e) noexcept {
  switch (e) {
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadCrc: return "bad_crc";
    case WireError::kBadValue: return "bad_value";
    case WireError::kParamsMismatch: return "params_mismatch";
    case WireError::kUnsupportedEngine: return "unsupported_engine";
    case WireError::kTrailingBytes: return "trailing_bytes";
  }
  return "unknown";
}

WireFormatError::WireFormatError(WireError code, const std::string& detail)
    : std::runtime_error(std::string("wire: ") + to_string(code) + ": " + detail),
      code_(code) {}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::raw(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out_->insert(out_->end(), bytes, bytes + len);
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw WireFormatError(WireError::kTruncated,
                          "need " + std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  const auto lo = u8();
  return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
}

std::uint32_t Reader::u32() {
  const auto lo = u16();
  return lo | (static_cast<std::uint32_t>(u16()) << 16);
}

std::uint64_t Reader::u64() {
  const auto lo = u32();
  return lo | (static_cast<std::uint64_t>(u32()) << 32);
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  check(v <= 1, WireError::kBadValue, "boolean byte not 0/1");
  return v != 0;
}

std::uint64_t Reader::var_u64() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    const std::uint64_t chunk = byte & 0x7F;
    check(shift != 63 || chunk <= 1, WireError::kBadValue, "varint exceeds 64 bits");
    v |= chunk << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw WireFormatError(WireError::kBadValue, "varint longer than 10 bytes");
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void Reader::raw(void* dst, std::size_t len) {
  need(len);
  std::memcpy(dst, data_.data() + pos_, len);
  pos_ += len;
}

void Reader::skip(std::size_t len) {
  need(len);
  pos_ += len;
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (min_element_bytes > 0 &&
      n > static_cast<std::uint64_t>(remaining()) / min_element_bytes) {
    throw WireFormatError(WireError::kTruncated,
                          "declared count " + std::to_string(n) +
                              " exceeds remaining input");
  }
  return n;
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: kCrc[0] is the classic bytewise table, and
// kCrc[k][b] advances kCrc[0][b] past k more zero bytes, so one 8-byte
// word folds in with eight independent lookups instead of a chain of eight.
constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Eight bytes as a little-endian word, whatever the host's byte order.
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t le = 0;
    for (std::size_t i = 0; i < sizeof(v); ++i) le = (le << 8) | ((v >> (8 * i)) & 0xFF);
    v = le;
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::size_t folded = simd::crc32_fold(c, p, len);
  p += folded;
  len -= folded;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    c = kCrc[7][w & 0xFF] ^ kCrc[6][(w >> 8) & 0xFF] ^ kCrc[5][(w >> 16) & 0xFF] ^
        kCrc[4][(w >> 24) & 0xFF] ^ kCrc[3][(w >> 32) & 0xFF] ^
        kCrc[2][(w >> 40) & 0xFF] ^ kCrc[1][(w >> 48) & 0xFF] ^ kCrc[0][w >> 56];
  }
  for (; len > 0; ++p, --len) c = kCrc[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hhh::wire
