#include "core/level_aggregates.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "wire/codec.hpp"

namespace hhh {

namespace {

// ---------------------------------------------------------------------------
// Compact v6 level-map encoding (a payload flag inside wire versions 2-3).
//
// A naive v6 counter entry is 25 bytes (u64 hi, u64 lo, u8 len, u64 bytes);
// an exact_v6 snapshot of a large trace was 65.7 MB of mostly-redundant
// bytes: within one level map every key has the SAME prefix length, keys
// share long address prefixes (hierarchical traffic), and byte counters
// are usually small. The compact encoding sorts the level's keys and
// writes, per entry, only the suffix that differs from the previous key
// plus an LEB128 counter:
//
//   u64  count | kCompactCountFlag      (bit 63 = compact block follows)
//   u8   prefix length L (shared by every key in the map)
//   then `count` entries, keys in ascending (hi, lo) order:
//     u8   shared    leading address bytes identical to the previous key
//     raw  ceil(L/8) - shared address bytes (big-endian suffix)
//     var  counter value (LEB128)
//
// The flag keeps the block inside the wire version: this build's reader
// accepts both the legacy per-entry blocks (flag clear — v2 snapshots
// written before the compact codec) and compact blocks; v1 payloads are
// IPv4-only and never reach the v6 path. A pre-compact build reading a
// compact block fails its count validation with a typed error, never
// UB — the standard forward-compatibility posture of the wire layer.
//
// The IPv4 encoding is untouched: its packed-u64 entries are the layout
// version-1 snapshots pin, and its maps are a quarter the bytes per entry
// to begin with.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kCompactCountFlag = 1ULL << 63;

/// Big-endian address bytes of a v6 map key (canonical, left-aligned).
void v6_address_bytes(const V6Domain::MapKey& key, std::uint8_t out[16]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(key.hi >> (56 - 8 * i));
    out[8 + i] = static_cast<std::uint8_t>(key.lo >> (56 - 8 * i));
  }
}

/// Big-endian 64-bit load (compilers recognize the pattern and emit one
/// bswap'd load).
std::uint64_t load_be64(const std::uint8_t* b) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

/// Inverse of v6_address_bytes (+ length).
V6Domain::MapKey v6_key_from_bytes(const std::uint8_t bytes[16], unsigned len) {
  return V6Domain::MapKey{load_be64(bytes), load_be64(bytes + 8), len};
}

/// Mirror Reader::count()'s cheap-allocation guard for counts that were
/// read raw (the flag bit lives in the count word).
void validate_count(const wire::Reader& r, std::uint64_t n, std::size_t min_element_bytes) {
  wire::check(n <= r.remaining() / min_element_bytes, wire::WireError::kTruncated,
              "declared count exceeds remaining input");
}

template <typename D>
void write_level_map(wire::Writer& w,
                     const typename BasicLevelAggregates<D>::Map& map,
                     [[maybe_unused]] unsigned level_len) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    std::vector<std::pair<V6Domain::MapKey, std::uint64_t>> entries;
    entries.reserve(map.size());
    bool uniform_len = true;
    map.for_each([&](const V6Domain::MapKey& key, const std::uint64_t& bytes) {
      uniform_len &= key.len == level_len;
      entries.emplace_back(key, bytes);
    });
    if (!uniform_len) {
      // Defensive fallback (cannot happen for hierarchy-built maps): the
      // legacy per-entry block stays valid wire.
      w.u64(entries.size());
      for (const auto& [key, bytes] : entries) {
        D::write_key(w, key);
        w.u64(bytes);
      }
      return;
    }
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.first.hi != b.first.hi ? a.first.hi < b.first.hi
                                      : a.first.lo < b.first.lo;
    });
    w.u64(static_cast<std::uint64_t>(entries.size()) | kCompactCountFlag);
    w.u8(static_cast<std::uint8_t>(level_len));
    const unsigned sig = (level_len + 7) / 8;
    std::uint8_t prev[16] = {0};
    for (const auto& [key, bytes] : entries) {
      std::uint8_t cur[16];
      v6_address_bytes(key, cur);
      unsigned shared = 0;
      while (shared < sig && cur[shared] == prev[shared]) ++shared;
      w.u8(static_cast<std::uint8_t>(shared));
      w.raw(cur + shared, sig - shared);
      w.var_u64(bytes);
      std::copy(cur, cur + 16, prev);
    }
  } else {
    w.u64(map.size());
    map.for_each([&](const typename D::MapKey& key, const std::uint64_t& bytes) {
      D::write_key(w, key);
      w.u64(bytes);
    });
  }
}

/// Decode one level block into `map`; returns the sum of its counters.
template <typename D>
std::uint64_t read_level_map(wire::Reader& r, typename BasicLevelAggregates<D>::Map& map,
                             unsigned level_len) {
  using Map = typename BasicLevelAggregates<D>::Map;
  std::uint64_t sum = 0;
  const std::uint64_t raw = r.u64();
  if constexpr (std::is_same_v<D, V6Domain>) {
    if (raw & kCompactCountFlag) {
      const std::uint64_t n = raw & ~kCompactCountFlag;
      validate_count(r, n, 2);  // 1 shared byte + >= 1 varint byte
      const unsigned len = r.u8();
      wire::check(len == level_len, wire::WireError::kBadValue,
                  "compact v6 block length does not match the hierarchy level");
      const unsigned sig = (len + 7) / 8;
      // Pre-size for the declared entry count (see the legacy path note).
      map = Map(std::max<std::size_t>(n * 2, 16));
      // Hot loop over the raw span with a local cursor: per-field Reader
      // calls (bounds check + call overhead per byte) would slow compact
      // decode against the legacy 25-byte entries; this keeps it one
      // bounds check per entry plus one per varint byte.
      const std::span<const std::uint8_t> rest = r.peek_rest();
      const std::uint8_t* p = rest.data();
      const std::uint8_t* const end = p + rest.size();
      std::uint8_t bytes[16] = {0};
      // Decode into scratch first, then insert in ascending bucket order:
      // delta decoding yields keys in *sorted* order, and inserting 128-bit
      // keys at hash-random buckets of a many-MB table is a cache miss per
      // entry — the bucket sort turns table writes sequential again (the
      // same trick as the legacy path, whose entries arrive in the source
      // map's bucket order for free).
      struct DecodedEntry {
        std::uint64_t bucket;
        V6Domain::MapKey key;
        std::uint64_t value;
      };
      std::vector<DecodedEntry> decoded;
      decoded.reserve(n);
      const std::size_t mask = map.capacity() - 1;
      for (std::uint64_t i = 0; i < n; ++i) {
        wire::check(p < end, wire::WireError::kTruncated, "compact v6 block truncated");
        const unsigned shared = *p++;
        wire::check(shared <= sig, wire::WireError::kBadValue,
                    "compact v6 shared-prefix byte count exceeds key width");
        const std::size_t suffix = sig - shared;
        wire::check(static_cast<std::size_t>(end - p) > suffix,
                    wire::WireError::kTruncated, "compact v6 block truncated");
        std::memcpy(bytes + shared, p, suffix);
        p += suffix;
        const V6Domain::MapKey key = v6_key_from_bytes(bytes, len);
        wire::check(key == V6Domain::truncate(key, len), wire::WireError::kBadValue,
                    "compact v6 key has bits beyond its prefix length");
        // Inline LEB128 (same grammar as Reader::var_u64).
        std::uint64_t value = 0;
        unsigned shift = 0;
        for (;;) {
          wire::check(p < end, wire::WireError::kTruncated, "compact v6 block truncated");
          const std::uint8_t byte = *p++;
          wire::check(shift < 64 && (shift != 63 || (byte & 0x7F) <= 1),
                      wire::WireError::kBadValue, "varint exceeds 64 bits");
          value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
          if ((byte & 0x80) == 0) break;
          shift += 7;
        }
        if (value == 0) continue;  // see the legacy path
        wire::check(!__builtin_add_overflow(sum, value, &sum), wire::WireError::kBadValue,
                    "LevelAggregates counters overflow");
        decoded.push_back(
            DecodedEntry{typename D::Hash{}(key) & mask, key, value});
      }
      r.skip(static_cast<std::size_t>(p - rest.data()));
      std::sort(decoded.begin(), decoded.end(),
                [](const DecodedEntry& a, const DecodedEntry& b) {
                  return a.bucket < b.bucket;
                });
      for (const DecodedEntry& e : decoded) {
        auto [v, inserted] = map.try_emplace(e.key);
        wire::check(inserted, wire::WireError::kBadValue,
                    "LevelAggregates duplicate key");
        *v = e.value;
      }
      return sum;
    }
  }
  // Legacy per-entry block (and the whole IPv4 path).
  const std::uint64_t n = raw;
  validate_count(r, n, 16);
  // Pre-size for the declared entry count: inserting a large level map
  // into a default-capacity table would rehash O(log n) times and
  // dominate deserialization.
  map = Map(n * 2);
  for (std::uint64_t i = 0; i < n; ++i) {
    const typename D::MapKey key = D::read_key(r);
    wire::check(D::length(key) == level_len && D::truncate(key, level_len) == key,
                wire::WireError::kBadValue,
                "LevelAggregates key is not a prefix of its level's length");
    const std::uint64_t value = r.u64();
    // Writers before version 3 kept zero counters for zero-length packets;
    // a zero counter counts nothing, and no live counter is zero.
    if (value == 0) continue;
    wire::check(!__builtin_add_overflow(sum, value, &sum), wire::WireError::kBadValue,
                "LevelAggregates counters overflow");
    auto [v, inserted] = map.try_emplace(key);
    wire::check(inserted, wire::WireError::kBadValue, "LevelAggregates duplicate key");
    *v = value;
  }
  return sum;
}

}  // namespace

template <typename D>
void BasicLevelAggregates<D>::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, hierarchy_);
  w.u64(total_);
  write_level_map<D>(w, leaf_, hierarchy_.leaf_length());
}

template <typename D>
void BasicLevelAggregates<D>::read_counters(wire::Reader& r) {
  total_ = r.u64();
  wire::check(read_level_map<D>(r, leaf_, hierarchy_.leaf_length()) == total_,
              wire::WireError::kBadValue,
              "LevelAggregates total is not the sum of the leaf counters");
  if (r.version() >= 3) return;
  // Versions 1-2 also carry every upper level. Each must equal the leaf's
  // sums, or extraction would drop the disagreeing block without a trace.
  for (std::size_t level = 1; level < hierarchy_.levels(); ++level) {
    Map block;
    read_level_map<D>(r, block, hierarchy_.length_at(level));
    const Map expected = level_map(level);
    bool equal = block.size() == expected.size();
    expected.for_each([&](const MapKey& key, const std::uint64_t& bytes) {
      const std::uint64_t* v = block.find(key);
      equal &= v != nullptr && *v == bytes;
    });
    wire::check(equal, wire::WireError::kBadValue,
                "LevelAggregates level block disagrees with the leaf counters");
  }
}

template <typename D>
void BasicLevelAggregates<D>::load_state(wire::Reader& r) {
  wire::check(wire::read_hierarchy(r) == hierarchy_, wire::WireError::kParamsMismatch,
              "LevelAggregates hierarchy mismatch");
  read_counters(r);
}

template class BasicLevelAggregates<V4Domain>;
template class BasicLevelAggregates<V6Domain>;

}  // namespace hhh
