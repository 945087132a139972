/// \file
/// LevelAggregates — exact per-level byte counters with O(levels) updates.
///
/// The exact ground-truth engine behind both window models. For every packet
/// it increments (or, when a window slides, decrements) one counter per
/// hierarchy level: the packet's source generalized to that level. HHH
/// extraction (exact_hhh.hpp) then runs over these maps without touching the
/// packet stream again.
///
/// Counters are erased when they return to zero so that a sliding window's
/// working set stays proportional to the *window's* distinct prefixes, not
/// the whole trace's.
///
/// The class is templated on a key domain (net/key_domain.hpp):
/// `LevelAggregates` (= BasicLevelAggregates<V4Domain>) stores the packed
/// 64-bit keys of the pre-generic code — identical layout, hashing and wire
/// bytes — and `LevelAggregatesV6` stores 128-bit keys. One copy of every
/// algorithm, specialized per family at compile time.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/hierarchy.hpp"
#include "net/key_domain.hpp"
#include "net/packet.hpp"
#include "util/flat_hash_map.hpp"
#include "wire/wire.hpp"

namespace hhh {

/// Exact per-level byte counters: one FlatHashMap per hierarchy level,
/// updated for every packet, queried by the exact HHH extraction.
template <typename D>
class BasicLevelAggregates {
 public:
  /// The domain's storage key (u64 for IPv4, 128-bit struct for IPv6).
  using MapKey = typename D::MapKey;
  /// One level's counter map.
  using Map = FlatHashMap<MapKey, std::uint64_t, typename D::Hash>;

  /// Counters for every level of `hierarchy`, all initially zero. The
  /// hierarchy's family must match the domain's; throws
  /// std::invalid_argument otherwise.
  explicit BasicLevelAggregates(const Hierarchy& hierarchy) : hierarchy_(hierarchy) {
    if (hierarchy_.family() != D::kFamily) {
      throw std::invalid_argument("LevelAggregates: hierarchy family mismatch");
    }
    maps_.reserve(hierarchy_.levels());
    for (std::size_t i = 0; i < hierarchy_.levels(); ++i) maps_.emplace_back(1024);
  }

  /// Add `bytes` for source `src` at every level. Packets of the other
  /// address family are ignored (not counted) — callers of a dual-stack
  /// pipeline route per family; see HhhEngine::add.
  void add(IpAddress src, std::uint64_t bytes) {
    if (src.family() != D::kFamily) return;
    total_ += bytes;
    for (std::size_t level = 0; level < maps_.size(); ++level) {
      maps_[level][D::key(src, hierarchy_.length_at(level))] += bytes;
    }
  }

  /// Batched add, byte-identical in effect to calling add() per packet.
  /// The batch is coalesced at the leaf level first and the distinct set is
  /// re-coalesced while propagating up the trie, so each level map sees
  /// every distinct prefix once: O(n + sum of per-level distinct) counter
  /// updates instead of O(n * levels).
  ///
  /// The leaf pass is structured for the vector units: same-family records
  /// are gathered into contiguous half/byte arrays, generalized and hashed
  /// as whole arrays (D::key_hash_batch — SIMD mix64, see util/simd.hpp),
  /// and inserted with the precomputed hashes (try_emplace_hashed), so the
  /// per-packet loop left over is just the table probe.
  void add_batch(std::span<const PacketRecord> packets) {
    if (packets.empty()) return;
    scratch_.clear();
    gather_hi_.clear();
    gather_lo_.clear();
    gather_bytes_.clear();
    for (const auto& p : packets) {
      // One predictable compare per packet (family shares the record's
      // first cache line with ip_len): other-family packets are skipped,
      // exactly like exact_hhh_of().
      if (p.family() != D::kFamily) continue;
      gather_hi_.push_back(p.src_hi());
      gather_lo_.push_back(p.src_lo());
      gather_bytes_.push_back(p.ip_len);
    }
    const std::size_t n = gather_hi_.size();
    if (n == 0) return;
    gather_keys_.resize(n);
    gather_hashes_.resize(n);
    D::key_hash_batch(gather_hi_.data(), gather_lo_.data(), hierarchy_.leaf_length(),
                      gather_keys_.data(), gather_hashes_.data(), n);
    std::uint64_t batch_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      batch_total += gather_bytes_[i];
      *scratch_.try_emplace_hashed(gather_keys_[i], gather_hashes_[i]).first +=
          gather_bytes_[i];
    }
    total_ += batch_total;
    if (batch_total == 0) return;
    for (std::size_t level = 0;; ++level) {
      auto& map = maps_[level];
      map.reserve(map.size() + scratch_.size());  // FlatHashMap bucket-order rule
      if (level + 1 == maps_.size()) {
        scratch_.for_each(
            [&](const MapKey& key, std::uint64_t& bytes) { map[key] += bytes; });
        break;
      }
      // Fused pass: apply this level's distinct sums and build the next
      // level's coalesced set in the same scan.
      const unsigned next_len = hierarchy_.length_at(level + 1);
      carry_.clear();
      scratch_.for_each([&](const MapKey& key, std::uint64_t& bytes) {
        map[key] += bytes;
        carry_[D::truncate(key, next_len)] += bytes;
      });
      std::swap(scratch_, carry_);
    }
  }

  /// Remove previously added traffic (window slide). Counts must never go
  /// negative — callers only remove what they added.
  void remove(IpAddress src, std::uint64_t bytes) {
    if (src.family() != D::kFamily) return;
    assert(total_ >= bytes);
    total_ -= bytes;
    for (std::size_t level = 0; level < maps_.size(); ++level) {
      const MapKey key = D::key(src, hierarchy_.length_at(level));
      auto* count = maps_[level].find(key);
      assert(count != nullptr && *count >= bytes);
      *count -= bytes;
      if (*count == 0) maps_[level].erase(key);
    }
  }

  /// Fold another instance's counters into this one. Lossless: counter
  /// addition commutes, so merge(A, B) is byte-identical to one instance
  /// having ingested A's and B's streams in any order — the foundation of
  /// the sharded exact engine's exactness guarantee. Throws
  /// std::invalid_argument when the hierarchies differ.
  void merge(const BasicLevelAggregates& other) {
    if (other.hierarchy_ != hierarchy_) {
      throw std::invalid_argument("LevelAggregates::merge: hierarchy mismatch");
    }
    total_ += other.total_;
    for (std::size_t level = 0; level < maps_.size(); ++level) {
      auto& map = maps_[level];
      map.reserve(map.size() + other.maps_[level].size());  // FlatHashMap bucket-order rule
      other.maps_[level].for_each(
          [&](const MapKey& key, const std::uint64_t& bytes) { map[key] += bytes; });
    }
  }

  /// Zero every counter (window boundary).
  void clear() {
    for (auto& m : maps_) m.clear();
    total_ = 0;
  }

  /// Bytes accounted since construction / the last clear().
  std::uint64_t total_bytes() const noexcept { return total_; }

  /// The hierarchy the counters are organised by.
  const Hierarchy& hierarchy() const noexcept { return hierarchy_; }

  /// Byte count of `prefix` (must be at a hierarchy level), 0 if absent.
  std::uint64_t count(PrefixKey prefix) const noexcept {
    const std::size_t level = hierarchy_.level_of(prefix);
    if (level == Hierarchy::npos) return 0;
    const auto* v = maps_[level].find(D::map_key(prefix));
    return v ? *v : 0;
  }

  /// Number of live (non-zero) prefixes at `level`.
  std::size_t distinct_at(std::size_t level) const noexcept { return maps_[level].size(); }

  /// Visit every live (map_key, bytes) pair at `level`; lift map keys into
  /// generic prefixes with D::prefix().
  template <typename Fn>
  void for_each_at(std::size_t level, Fn&& fn) const {
    maps_[level].for_each(
        [&](const MapKey& key, const std::uint64_t& bytes) { fn(key, bytes); });
  }

  /// Write the hierarchy and every level's live counters to the wire.
  /// Lossless: the restored counters are equal, so extraction and all
  /// future add/remove/merge behaviour are byte-identical.
  void save_state(wire::Writer& w) const;

  /// Restore counters written by save_state() into an instance over the
  /// same hierarchy. Throws wire::WireFormatError on a hierarchy mismatch
  /// (kParamsMismatch) or corrupt input.
  void load_state(wire::Reader& r);

  /// Construct an instance from counters following an already-decoded
  /// hierarchy header (the snapshot loader reads the hierarchy first to
  /// pick the domain, then delegates here).
  static BasicLevelAggregates deserialize_counters(const Hierarchy& hierarchy,
                                                   wire::Reader& r) {
    BasicLevelAggregates agg(hierarchy);
    agg.read_counters(r);
    return agg;
  }

  /// Construct an instance directly from the wire (reads the hierarchy
  /// from the payload). The hierarchy's family must match the domain.
  static BasicLevelAggregates deserialize(wire::Reader& r);

  /// Memory footprint of all level maps (resource accounting).
  std::size_t memory_bytes() const noexcept {
    std::size_t sum = 0;
    for (const auto& m : maps_) sum += m.memory_bytes();
    return sum;
  }

 private:
  void read_counters(wire::Reader& r);

  Hierarchy hierarchy_;
  std::vector<Map> maps_;  // one per level
  std::uint64_t total_ = 0;
  // add_batch() ping-pong scratch (members so batches reuse capacity).
  Map scratch_;
  Map carry_;
  // add_batch() leaf-pass gather arrays (contiguous SoA views of the batch
  // for the SIMD generalize/hash kernels; members so batches reuse
  // capacity).
  std::vector<std::uint64_t> gather_hi_;
  std::vector<std::uint64_t> gather_lo_;
  std::vector<std::uint32_t> gather_bytes_;
  std::vector<MapKey> gather_keys_;
  std::vector<std::uint64_t> gather_hashes_;
};

/// The IPv4 instantiation — bit-identical to the pre-generic class.
using LevelAggregates = BasicLevelAggregates<V4Domain>;
/// The IPv6 instantiation (128-bit keys).
using LevelAggregatesV6 = BasicLevelAggregates<V6Domain>;

extern template class BasicLevelAggregates<V4Domain>;
extern template class BasicLevelAggregates<V6Domain>;

}  // namespace hhh
