// FlatHashMap: open-addressing hash map with robin-hood displacement.
//
// The exact counting paths (per-IP byte counters, rolling window buckets)
// perform one lookup-or-insert per packet; std::unordered_map's node
// allocations dominate there. This map stores key/value slots contiguously,
// resolves collisions by linear probing with robin-hood balancing, and keeps
// probe sequences short at high load factors.
//
// Requirements: Key is trivially copyable and hashable via the Hash functor;
// Value is default-constructible and movable. Deliberately minimal API —
// exactly what the counting code needs (find / try_emplace / erase /
// iteration) — not a drop-in std::unordered_map.
//
// Bucket-order hazard: a key's bucket is `hash & mask`, so iterating a
// table visits its keys in roughly ascending bucket order of any other
// table that uses the same Hash. Inserting that stream into a second
// table that must grow on the way (it starts smaller than the result)
// builds long robin-hood clusters, and the copy runs several times
// slower than with random-order keys. Rule: reserve() the expected
// final size before a bulk insert from another table of the same key
// type. (LevelAggregates merges sorted runs, not tables.)
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/bit.hpp"
#include "util/hash.hpp"

namespace hhh {

/// Default hasher: mixes integral keys through mix64.
template <typename K>
struct DefaultKeyHash {
  std::uint64_t operator()(const K& k) const noexcept {
    return mix64(static_cast<std::uint64_t>(k));
  }
};

template <typename Key, typename Value, typename Hash = DefaultKeyHash<Key>>
class FlatHashMap {
  struct Slot {
    Key key{};
    Value value{};
    // Distance from the slot the key hashes to, plus one. 0 == empty.
    std::uint16_t dib = 0;
  };

 public:
  using value_type = std::pair<const Key, Value>;

  FlatHashMap() : FlatHashMap(16) {}

  explicit FlatHashMap(std::size_t initial_capacity, Hash hash = Hash())
      : hash_(hash) {
    slots_.resize(next_pow2(std::max<std::size_t>(initial_capacity, 8)));
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  void clear() noexcept {
    for (auto& s : slots_) s.dib = 0;
    size_ = 0;
  }

  /// Rehash once to the smallest power-of-two capacity that holds `n`
  /// entries under the 7/8 load rule, so the next inserts up to `n`
  /// entries never grow the table. Never shrinks: a no-op when the
  /// capacity already holds `n` (in particular when `n <= size()`).
  void reserve(std::size_t n) {
    std::size_t capacity = slots_.size();
    while (n * 8 >= capacity * 7) capacity *= 2;
    if (capacity != slots_.size()) rehash(capacity);
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  Value* find(const Key& key) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hash_(key)) & mask;
    std::uint16_t dib = 1;
    while (true) {
      Slot& s = slots_[idx];
      if (s.dib == 0 || s.dib < dib) return nullptr;  // robin-hood early exit
      if (s.dib == dib && s.key == key) return &s.value;
      idx = (idx + 1) & mask;
      ++dib;
    }
  }

  const Value* find(const Key& key) const noexcept {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  bool contains(const Key& key) const noexcept { return find(key) != nullptr; }

  /// Returns the value for `key`, inserting a default-constructed one if
  /// absent. The workhorse of all counting code: `map[key] += bytes`.
  Value& operator[](const Key& key) { return *try_emplace(key).first; }

  /// Insert `key` with a default value if absent. Returns {value*, inserted}.
  std::pair<Value*, bool> try_emplace(const Key& key) {
    return try_emplace_hashed(key, hash_(key));
  }

  /// try_emplace with a caller-supplied hash of `key`. The batch ingestion
  /// paths hash whole arrays of keys up front (SIMD, see util/simd.hpp) and
  /// hand the precomputed values here; `hash` MUST equal `Hash()(key)` or
  /// the table silently corrupts.
  std::pair<Value*, bool> try_emplace_hashed(const Key& key, std::uint64_t hash) {
    if ((size_ + 1) * 8 >= slots_.size() * 7) rehash(slots_.size() * 2);  // load factor 7/8

    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hash) & mask;
    std::uint16_t dib = 1;
    Key k = key;
    Value v{};
    Value* result = nullptr;
    bool inserted = false;

    while (true) {
      Slot& s = slots_[idx];
      if (s.dib == 0) {
        s.key = std::move(k);
        s.value = std::move(v);
        s.dib = dib;
        ++size_;
        if (!inserted) {
          inserted = true;
          result = &s.value;
        }
        return {result, true};
      }
      if (!inserted && s.dib == dib && s.key == key) return {&s.value, false};
      if (s.dib < dib) {
        // Rob the rich: displace the shallower entry and keep probing with it.
        std::swap(k, s.key);
        std::swap(v, s.value);
        std::swap(dib, s.dib);
        if (!inserted) {
          inserted = true;
          result = &s.value;
        }
      }
      idx = (idx + 1) & mask;
      ++dib;
    }
  }

  /// Remove `key`; returns true if it was present. Uses backward-shift
  /// deletion, so no tombstones accumulate.
  bool erase(const Key& key) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hash_(key)) & mask;
    std::uint16_t dib = 1;
    while (true) {
      Slot& s = slots_[idx];
      if (s.dib == 0 || s.dib < dib) return false;
      if (s.dib == dib && s.key == key) break;
      idx = (idx + 1) & mask;
      ++dib;
    }
    // Backward-shift everything in the probe chain one slot left.
    std::size_t hole = idx;
    while (true) {
      const std::size_t nxt = (hole + 1) & mask;
      Slot& n = slots_[nxt];
      if (n.dib <= 1) break;
      slots_[hole].key = std::move(n.key);
      slots_[hole].value = std::move(n.value);
      slots_[hole].dib = n.dib - 1;
      hole = nxt;
    }
    slots_[hole].dib = 0;
    --size_;
    return true;
  }

  /// Visit every (key, value) pair. `fn(const Key&, Value&)`.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_) {
      if (s.dib != 0) fn(static_cast<const Key&>(s.key), s.value);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.dib != 0) fn(s.key, s.value);
    }
  }

  /// Remove every entry for which `pred(key, value)` is true; returns the
  /// number removed. Rebuilds once, so it is safe at any size.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::vector<std::pair<Key, Value>> keep;
    keep.reserve(size_);
    std::size_t removed = 0;
    for (auto& s : slots_) {
      if (s.dib == 0) continue;
      if (pred(static_cast<const Key&>(s.key), s.value)) {
        ++removed;
      } else {
        keep.emplace_back(std::move(s.key), std::move(s.value));
      }
      s.dib = 0;
    }
    size_ = 0;
    for (auto& [k, v] : keep) {
      *try_emplace(k).first = std::move(v);
    }
    return removed;
  }

  /// Bytes of heap memory held by the table (for resource accounting).
  std::size_t memory_bytes() const noexcept { return slots_.size() * sizeof(Slot); }

 private:
  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    size_ = 0;
    for (auto& s : old) {
      if (s.dib != 0) *try_emplace(s.key).first = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  Hash hash_;
};

}  // namespace hhh
