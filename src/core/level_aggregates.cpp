#include "core/level_aggregates.hpp"

#include <array>
#include <cstring>
#include <type_traits>
#include <utility>

#include "wire/codec.hpp"

namespace hhh {

namespace {

template <typename D>
using Entry = typename BasicLevelAggregates<D>::Entry;
template <typename D>
using Run = typename BasicLevelAggregates<D>::Run;

/// Address byte `d` of a key, counted from the least significant.
template <typename D>
unsigned address_byte(const typename D::MapKey& key, unsigned d) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    return static_cast<unsigned>((d < 8 ? key.lo >> (8 * d) : key.hi >> (8 * (d - 8))) & 0xFF);
  } else {
    return static_cast<unsigned>((key >> (8 + 8 * d)) & 0xFF);  // above the length byte
  }
}

/// Address order of two keys of one prefix length (PrefixKey's order
/// within a level).
template <typename D>
bool key_less(const typename D::MapKey& a, const typename D::MapKey& b) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  } else {
    return a < b;  // equal length bytes: the packed key orders by address
  }
}

/// Sort `entries` into ascending address order. An LSD radix sort over the
/// address bytes that skips every byte all keys share, so it costs one
/// pass per varying byte (a comparison sort of random keys costs several
/// times more).
template <typename D>
void radix_sort(Run<D>& entries) {
  constexpr unsigned kDigits = D::kAddressBits / 8;
  if (entries.size() < 2) return;
  std::vector<std::array<std::size_t, 256>> counts(kDigits);
  for (const Entry<D>& e : entries) {
    for (unsigned d = 0; d < kDigits; ++d) ++counts[d][address_byte<D>(e.first, d)];
  }
  Run<D> scratch(entries.size());
  for (unsigned d = 0; d < kDigits; ++d) {
    auto& next = counts[d];  // becomes each digit value's next output slot
    if (next[address_byte<D>(entries.front().first, d)] == entries.size()) continue;
    std::size_t offset = 0;
    for (std::size_t& slot : next) offset += std::exchange(slot, offset);
    for (const Entry<D>& e : entries) scratch[next[address_byte<D>(e.first, d)]++] = e;
    entries.swap(scratch);
  }
}

/// Merge the ascending run `theirs` into the ascending run `ours`, summing
/// the counters of shared keys. In place, from the back: the write cursor
/// never overtakes the unread part of `ours`, and each shared key leaves
/// one slot of gap that a final move closes.
template <typename D>
void merge_runs(Run<D>& ours, std::span<const Entry<D>> theirs) {
  if (theirs.empty()) return;
  if (ours.empty()) {
    ours.assign(theirs.begin(), theirs.end());
    return;
  }
  std::size_t i = ours.size();
  std::size_t j = theirs.size();
  std::size_t k = i + j;
  ours.resize(k);
  while (j > 0) {
    if (i > 0 && key_less<D>(theirs[j - 1].first, ours[i - 1].first)) {
      ours[--k] = ours[--i];
    } else if (i > 0 && ours[i - 1].first == theirs[j - 1].first) {
      --i;
      --j;
      ours[--k] = Entry<D>(ours[i].first, ours[i].second + theirs[j].second);
    } else {
      ours[--k] = theirs[--j];
    }
  }
  // ours[0, i) is in place; the merged tail starts at k.
  if (k != i) {
    std::move(ours.begin() + static_cast<std::ptrdiff_t>(k), ours.end(),
              ours.begin() + static_cast<std::ptrdiff_t>(i));
    ours.resize(ours.size() - (k - i));
  }
}

// ---------------------------------------------------------------------------
// Level-block codec.
//
// Both families write a level block in ascending key order — the run's
// order — so equal counters write equal bytes whatever their ingest
// order, batch sizes or merge history.
//
// IPv4: u64 count, then per entry (u64 packed key, u64 bytes): the
// layout version-1 snapshots pin. Writers of wire versions 1-3 before the
// run walked their hash map's slots instead, so a reader accepts entries
// in any order: a block that is not ascending is radix-sorted once, and
// then adjacent equal keys fail as duplicates.
//
// IPv6: a naive entry is 25 bytes (u64 hi, u64 lo, u8 len, u64 bytes); an
// exact_v6 snapshot of a large trace was 65.7 MB of mostly-redundant
// bytes: within one level every key has the SAME prefix length, keys
// share long address prefixes (hierarchical traffic), and byte counters
// are usually small. The compact block writes, per entry, only the
// suffix that differs from the previous key plus an LEB128 counter:
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
// compact block fails its count validation with a typed error, never UB.
//
// Decoding fills a run with no hash inserts, checking the order in the
// same pass. The run holds 16 B per declared v4 entry, which is at most
// the block's own bytes, and 32 B per v6 entry, at most 16 x the bytes of
// a compact block; every declared count is checked against the bytes
// left before anything is allocated.
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

/// Little-endian 64-bit load and store (one mov each on x86).
std::uint64_t load_le64(const std::uint8_t* b) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}
void store_le64(std::uint8_t* b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
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

/// Write one level block from ascending `leaves` (all of length
/// `level_len`).
template <typename D>
void write_level_map(wire::Writer& w, std::span<const Entry<D>> leaves,
                     unsigned level_len) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    w.u64(static_cast<std::uint64_t>(leaves.size()) | kCompactCountFlag);
    w.u8(static_cast<std::uint8_t>(level_len));
    const unsigned sig = (level_len + 7) / 8;
    std::uint8_t prev[16] = {0};
    for (const auto& [key, bytes] : leaves) {
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
    w.u64(leaves.size());
    // The entries go out through a stack buffer, one Writer call per 4 KiB.
    std::uint8_t buf[4096];
    std::size_t used = 0;
    for (const auto& [key, bytes] : leaves) {
      store_le64(buf + used, key);
      store_le64(buf + used + 8, bytes);
      used += 16;
      if (used == sizeof(buf)) {
        w.raw(buf, used);
        used = 0;
      }
    }
    w.raw(buf, used);
  }
}

/// Decode one level block of length `level_len` into the ascending run
/// `run`; returns the sum of its counters.
template <typename D>
std::uint64_t read_level_map(wire::Reader& r, Run<D>& run, unsigned level_len) {
  using MapKey = typename D::MapKey;
  run.clear();
  std::uint64_t sum = 0;
  bool ascending = true;
  const auto append = [&](const MapKey& key, std::uint64_t value) {
    wire::check(D::length(key) == level_len && D::truncate(key, level_len) == key,
                wire::WireError::kBadValue,
                "LevelAggregates key is not a prefix of its level's length");
    // Writers before version 3 kept zero counters for zero-length packets;
    // a zero counter counts nothing, and no live counter is zero.
    if (value == 0) return;
    wire::check(!__builtin_add_overflow(sum, value, &sum), wire::WireError::kBadValue,
                "LevelAggregates counters overflow");
    ascending = ascending && (run.empty() || key_less<D>(run.back().first, key));
    run.emplace_back(key, value);
  };
  const std::uint64_t raw = r.u64();
  if constexpr (std::is_same_v<D, V6Domain>) {
    if (raw & kCompactCountFlag) {
      const std::uint64_t n = raw & ~kCompactCountFlag;
      validate_count(r, n, 2);  // 1 shared byte + >= 1 varint byte
      const unsigned len = r.u8();
      wire::check(len == level_len, wire::WireError::kBadValue,
                  "compact v6 block length does not match the hierarchy level");
      const unsigned sig = (len + 7) / 8;
      run.reserve(n);
      // Hot loop over the raw span with a local cursor: per-field Reader
      // calls (bounds check + call overhead per byte) would slow compact
      // decode against the legacy 25-byte entries; this keeps it one
      // bounds check per entry plus one per varint byte.
      const std::span<const std::uint8_t> rest = r.peek_rest();
      const std::uint8_t* p = rest.data();
      const std::uint8_t* const end = p + rest.size();
      std::uint8_t bytes[16] = {0};
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
        const MapKey key = v6_key_from_bytes(bytes, len);
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
        append(key, value);
      }
      r.skip(static_cast<std::size_t>(p - rest.data()));
    } else {
      // Legacy per-entry block (u64 hi, u64 lo, u8 len, u64 bytes).
      validate_count(r, raw, 16);
      run.reserve(raw);
      for (std::uint64_t i = 0; i < raw; ++i) {
        const MapKey key = D::read_key(r);
        append(key, r.u64());
      }
    }
  } else {
    validate_count(r, raw, 16);
    run.reserve(raw);
    const std::uint8_t* p = r.peek_rest().data();
    for (std::uint64_t i = 0; i < raw; ++i, p += 16) append(load_le64(p), load_le64(p + 8));
    r.skip(static_cast<std::size_t>(raw * 16));
  }
  if (!ascending) {
    radix_sort<D>(run);
    for (std::size_t i = 1; i < run.size(); ++i) {
      wire::check(!(run[i - 1].first == run[i].first), wire::WireError::kBadValue,
                  "LevelAggregates duplicate key");
    }
  }
  return sum;
}

/// The counters of `map` as an ascending run, written into `run`.
template <typename D>
void sort_map(const typename BasicLevelAggregates<D>::Map& map, Run<D>& run) {
  run.clear();
  run.reserve(map.size());
  map.for_each([&](const typename D::MapKey& key, const std::uint64_t& bytes) {
    run.emplace_back(key, bytes);
  });
  radix_sort<D>(run);
}

}  // namespace

template <typename D>
void BasicLevelAggregates<D>::freeze() {
  if (sorted_) return;
  sort_map<D>(leaf_, run_);
  sorted_ = true;
}

template <typename D>
typename BasicLevelAggregates<D>::Run BasicLevelAggregates<D>::release_run() {
  freeze();
  Run out = std::move(run_);
  clear();
  return out;
}

template <typename D>
void BasicLevelAggregates<D>::subtract_run(std::span<const Entry> leaves) {
  if (leaves.empty()) return;
  freeze();
  // `leaves` is a subset of the run's keys, in the same order: one cursor
  // each, and the survivors are compacted in place.
  std::size_t out = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < run_.size(); ++i) {
    Entry e = run_[i];
    if (j < leaves.size() && leaves[j].first == e.first) {
      assert(e.second >= leaves[j].second);
      e.second -= leaves[j].second;
      total_ -= leaves[j].second;
      ++j;
      if (e.second == 0) continue;
    }
    run_[out++] = e;
  }
  assert(j == leaves.size());
  run_.resize(out);
}

template <typename D>
void BasicLevelAggregates<D>::thaw() {
  leaf_.clear();
  leaf_.reserve(run_.size());
  for (const auto& [key, bytes] : run_) *leaf_.try_emplace(key).first = bytes;
  run_ = Run();
  sorted_ = false;
}

template <typename D>
std::span<const typename BasicLevelAggregates<D>::Entry>
BasicLevelAggregates<D>::sorted_leaves(Run& scratch) const {
  if (sorted_) return run_;
  sort_map<D>(leaf_, scratch);
  return scratch;
}

template <typename D>
void BasicLevelAggregates<D>::merge(const BasicLevelAggregates& other) {
  if (other.hierarchy_ != hierarchy_) {
    throw std::invalid_argument("LevelAggregates::merge: hierarchy mismatch");
  }
  if (&other == this) {  // the merge reads `other` while it writes this run
    const BasicLevelAggregates copy = other;
    merge(copy);
    return;
  }
  Run scratch;
  const std::span<const Entry> theirs = other.sorted_leaves(scratch);
  freeze();
  if (run_.empty() && theirs.data() == scratch.data()) {
    run_.swap(scratch);  // the common clone: an empty target adopts the sorted copy
  } else {
    merge_runs<D>(run_, theirs);
  }
  total_ += other.total_;
}

template <typename D>
void BasicLevelAggregates<D>::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, hierarchy_);
  w.u64(total_);
  Run scratch;
  write_level_map<D>(w, sorted_leaves(scratch), hierarchy_.leaf_length());
}

template <typename D>
void BasicLevelAggregates<D>::read_counters(wire::Reader& r) {
  const std::uint64_t total = r.u64();
  Run run;
  wire::check(read_level_map<D>(r, run, hierarchy_.leaf_length()) == total,
              wire::WireError::kBadValue,
              "LevelAggregates total is not the sum of the leaf counters");
  if (r.version() < 3) {
    // Versions 1-2 also carry every upper level. Each must equal the leaf's
    // sums, or extraction would drop the disagreeing block without a trace.
    Run block;
    Run expected;
    for (std::size_t level = 1; level < hierarchy_.levels(); ++level) {
      const unsigned len = hierarchy_.length_at(level);
      read_level_map<D>(r, block, len);
      expected.clear();
      for_each_prefix(run, len, [&](const MapKey& key, std::uint64_t bytes) {
        expected.emplace_back(key, bytes);
      });
      wire::check(block == expected, wire::WireError::kBadValue,
                  "LevelAggregates level block disagrees with the leaf counters");
    }
  }
  total_ = total;
  run_ = std::move(run);
  sorted_ = true;
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
