/// \file
/// LevelAggregates — exact byte counters with O(1) updates.
///
/// The exact ground-truth engine behind both window models. For every packet
/// it increments (or, when a window slides, decrements) one counter: the
/// packet's source generalized to the hierarchy's leaf level. Every upper
/// level is a sum of the leaf level, so it is not stored: HHH extraction
/// (exact_hhh.hpp) derives the upper levels once per report instead of
/// once per packet, and the wire carries the leaf level only.
///
/// The leaf counters have two views, and at most one is authoritative at
/// a time:
///
///  * the *map* (FlatHashMap), written by add/add_batch/remove — one
///    probe per packet;
///  * the *run*: the same (key, bytes) pairs in ascending address order,
///    which is what extraction, the wire codec and merge walk.
///
/// freeze() radix-sorts the map into the run (the one leaf sort in src/);
/// the next add/add_batch/remove thaws the run back into the map. merge()
/// and subtract_run() are linear passes over two runs (the exact sliding
/// window adds and expires whole steps this way), and a decoded frame
/// fills the run directly, so a collector that decodes, extracts and
/// merges exact frames never sorts or hashes. Const readers of a
/// map-authoritative instance sort into a caller-owned scratch run
/// instead of caching one, so concurrent const calls stay safe.
///
/// Counters are erased when they return to zero so that a sliding window's
/// working set stays proportional to the *window's* distinct prefixes, not
/// the whole trace's.
///
/// The class is templated on a key domain (net/key_domain.hpp):
/// `LevelAggregates` (= BasicLevelAggregates<V4Domain>) stores the packed
/// 64-bit keys of the pre-generic code — identical layout and hashing —
/// and `LevelAggregatesV6` stores 128-bit keys. One copy of every
/// algorithm, specialized per family at compile time.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/hierarchy.hpp"
#include "net/key_domain.hpp"
#include "net/packet.hpp"
#include "util/flat_hash_map.hpp"
#include "wire/wire.hpp"

namespace hhh {

/// Exact byte counters at the hierarchy's leaf level; every upper level is
/// derived from them by the exact HHH extraction.
template <typename D>
class BasicLevelAggregates {
 public:
  /// The domain's storage key (u64 for IPv4, 128-bit struct for IPv6).
  using MapKey = typename D::MapKey;
  /// A counter map keyed by prefixes of one length.
  using Map = FlatHashMap<MapKey, std::uint64_t, typename D::Hash>;
  /// One leaf counter: (key, bytes).
  using Entry = std::pair<MapKey, std::uint64_t>;
  /// Leaf counters in ascending address order, every key distinct and
  /// every counter non-zero.
  using Run = std::vector<Entry>;

  /// Counters over `hierarchy`, all initially zero. The hierarchy's
  /// family must match the domain's; throws std::invalid_argument
  /// otherwise. The map starts at its minimum size: decoded frames, merge
  /// targets and sharded clones hold runs and never write it.
  explicit BasicLevelAggregates(const Hierarchy& hierarchy) : hierarchy_(hierarchy) {
    if (hierarchy_.family() != D::kFamily) {
      throw std::invalid_argument("LevelAggregates: hierarchy family mismatch");
    }
  }

  /// Add `bytes` for source `src` at the leaf level. Packets of the other
  /// address family are ignored (not counted) — callers of a dual-stack
  /// pipeline route per family; see HhhEngine::family. Zero bytes count
  /// nothing, so no counter is ever zero.
  void add(IpAddress src, std::uint64_t bytes) {
    if (src.family() != D::kFamily || bytes == 0) return;
    if (sorted_) thaw();
    total_ += bytes;
    leaf_[D::key(src, hierarchy_.leaf_length())] += bytes;
  }

  /// Batched add, identical in effect to calling add() per packet.
  ///
  /// Structured for the vector units: same-family records are gathered
  /// into contiguous half/byte arrays, generalized and hashed as whole
  /// arrays (D::key_hash_batch — SIMD mix64, see util/simd.hpp), and
  /// inserted with the precomputed hashes (try_emplace_hashed), so the
  /// per-packet loop left over is just the table probe.
  void add_batch(std::span<const PacketRecord> packets) {
    gather_hi_.clear();
    gather_lo_.clear();
    gather_bytes_.clear();
    for (const auto& p : packets) {
      // Predictable compares per packet (family shares the record's first
      // cache line with ip_len): other-family and zero-length packets are
      // skipped, exactly like add().
      if (p.family() != D::kFamily || p.ip_len == 0) continue;
      gather_hi_.push_back(p.src_hi());
      gather_lo_.push_back(p.src_lo());
      gather_bytes_.push_back(p.ip_len);
    }
    const std::size_t n = gather_hi_.size();
    if (n == 0) return;
    if (sorted_) thaw();
    gather_keys_.resize(n);
    gather_hashes_.resize(n);
    D::key_hash_batch(gather_hi_.data(), gather_lo_.data(), hierarchy_.leaf_length(),
                      gather_keys_.data(), gather_hashes_.data(), n);
    std::uint64_t batch_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      batch_total += gather_bytes_[i];
      *leaf_.try_emplace_hashed(gather_keys_[i], gather_hashes_[i]).first +=
          gather_bytes_[i];
    }
    total_ += batch_total;
  }

  /// Remove previously added traffic (window slide). Counts must never go
  /// negative — callers only remove what they added.
  void remove(IpAddress src, std::uint64_t bytes) {
    if (src.family() != D::kFamily || bytes == 0) return;
    if (sorted_) thaw();
    assert(total_ >= bytes);
    total_ -= bytes;
    const MapKey key = D::key(src, hierarchy_.leaf_length());
    auto* count = leaf_.find(key);
    assert(count != nullptr && *count >= bytes);
    *count -= bytes;
    if (*count == 0) leaf_.erase(key);
  }

  /// Fold another instance's counters into this one. Lossless: counter
  /// addition commutes, so merge(A, B) is byte-identical to one instance
  /// having ingested A's and B's streams in any order — the foundation of
  /// the sharded exact engine's exactness guarantee. A linear merge of
  /// the two runs: a map-authoritative side is radix-sorted first (this
  /// side by freeze(), `other` into a scratch run), and the result is
  /// run-authoritative. Throws std::invalid_argument when the
  /// hierarchies differ.
  void merge(const BasicLevelAggregates& other);

  /// Subtract the run of an instance that was merged in before (a step
  /// leaving a sliding window): one linear pass, leaving this instance
  /// run-authoritative. Counters that reach zero are erased.
  void subtract_run(std::span<const Entry> leaves);

  /// Make the run the authoritative view: radix-sort the map into it
  /// unless the run is already current. A window close calls this once,
  /// so its report and its snapshot walk the same sorted leaves.
  void freeze();

  /// Hand the leaves over as an ascending run and zero every counter (a
  /// sliding window keeps each closed step this way).
  Run release_run();

  /// Zero every counter (window boundary): empties both views and
  /// releases the run, so no second copy of the leaves outlives a window.
  void clear() {
    leaf_.clear();
    run_ = Run();
    sorted_ = false;
    total_ = 0;
  }

  /// Bytes accounted since construction / the last clear(); always the
  /// sum of the leaf counters.
  std::uint64_t total_bytes() const noexcept { return total_; }

  /// The hierarchy the counters are organised by.
  const Hierarchy& hierarchy() const noexcept { return hierarchy_; }

  /// Number of live (non-zero) leaf counters.
  std::size_t leaves() const noexcept { return sorted_ ? run_.size() : leaf_.size(); }

  /// The leaf counters in ascending address order: the run itself when it
  /// is current, otherwise the map radix-sorted into `scratch`. The span
  /// is valid until this instance or `scratch` changes.
  std::span<const Entry> sorted_leaves(Run& scratch) const;

  // Per-level views. Each derives its level from the sorted leaves in
  // O(distinct leaves): for tests and examples, never for a hot path.

  /// Byte count of `prefix` (must be at a hierarchy level), 0 if absent.
  std::uint64_t count(PrefixKey prefix) const {
    const std::size_t level = hierarchy_.level_of(prefix);
    if (level == Hierarchy::npos) return 0;
    const MapKey wanted = D::map_key(prefix);
    std::uint64_t found = 0;
    for_each_at(level, [&](const MapKey& key, std::uint64_t bytes) {
      if (key == wanted) found = bytes;
    });
    return found;
  }

  /// Number of live (non-zero) prefixes at `level`.
  std::size_t distinct_at(std::size_t level) const {
    std::size_t n = 0;
    for_each_at(level, [&](const MapKey&, std::uint64_t) { ++n; });
    return n;
  }

  /// Visit every live (map_key, bytes) pair at `level` in ascending
  /// address order; lift map keys into generic prefixes with D::prefix().
  template <typename Fn>
  void for_each_at(std::size_t level, Fn&& fn) const {
    Run scratch;
    for_each_prefix(sorted_leaves(scratch), hierarchy_.length_at(level), fn);
  }

  /// Write the hierarchy, the total and the leaf counters to the wire, in
  /// ascending key order: equal counters write equal bytes, whatever
  /// their ingest order or merge history. Lossless: the restored counters
  /// are equal, so extraction and all future add/remove/merge behaviour
  /// are byte-identical.
  void save_state(wire::Writer& w) const;

  /// Restore counters written by save_state() into an instance over the
  /// same hierarchy. Throws wire::WireFormatError on a hierarchy mismatch
  /// (kParamsMismatch) or corrupt input.
  void load_state(wire::Reader& r);

  /// Restore the counters that follow an already-decoded hierarchy header
  /// (the snapshot loader reads the hierarchy first to pick the domain,
  /// then delegates here). The decoded run becomes authoritative.
  void read_counters(wire::Reader& r);

  /// Memory footprint of both views (resource accounting).
  std::size_t memory_bytes() const noexcept {
    return leaf_.memory_bytes() + run_.capacity() * sizeof(Entry);
  }

 private:
  /// Rebuild the map from the run and make it authoritative again.
  void thaw();

  /// Visit the length-`len` prefixes of the ascending `leaves` with their
  /// summed bytes, ascending. Truncation keeps the leaves' order, so each
  /// prefix is one contiguous stretch of leaves.
  template <typename Fn>
  static void for_each_prefix(std::span<const Entry> leaves, unsigned len, Fn&& fn) {
    for (std::size_t i = 0; i < leaves.size();) {
      const MapKey key = D::truncate(leaves[i].first, len);
      std::uint64_t bytes = 0;
      for (; i < leaves.size() && D::truncate(leaves[i].first, len) == key; ++i) {
        bytes += leaves[i].second;
      }
      fn(key, bytes);
    }
  }

  Hierarchy hierarchy_;
  Map leaf_;
  Run run_;
  bool sorted_ = false;  // true: run_ is authoritative, leaf_ is stale
  std::uint64_t total_ = 0;
  // add_batch() gather arrays (contiguous SoA views of the batch for the
  // SIMD generalize/hash kernels; members so batches reuse capacity).
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
