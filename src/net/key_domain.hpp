// Compile-time per-family key codecs — the zero-overhead bridge between
// the generic key layer (net/ip.hpp) and the hot data structures.
//
// Engines and sketches do not store PrefixKey: they store a per-family
// MapKey chosen so the IPv4 instantiation is bit-for-bit the pre-generic
// representation:
//
//  * V4Domain::MapKey is std::uint64_t, packed as (bits << 8 | len) —
//    exactly Ipv4Prefix::key(). Hash, map layout, and wire bytes of every
//    v4 structure are unchanged by the generic refactor (and version-1
//    snapshots still decode).
//  * V6Domain::MapKey is {hi, lo, len} (24 bytes) with a mixed 128-bit
//    hash; wire encoding is (u64 hi, u64 lo, u8 len).
//
// Templating on the domain (BasicLevelAggregates<D>, BasicSpaceSaving<D>,
// BasicRhhhEngine<D>, the exact extraction) keeps one copy of every
// algorithm while the compiler specializes the key arithmetic per family.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/ip.hpp"
#include "util/bit.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "wire/wire.hpp"

namespace hhh {

/// IPv4 key codec: 64-bit packed (bits << 8 | len) keys.
struct V4Domain {
  static constexpr AddressFamily kFamily = AddressFamily::kIpv4;  ///< the domain's family
  static constexpr unsigned kAddressBits = 32;                    ///< address width

  /// The storage/hash key: the pre-generic packed (bits << 8 | len).
  using MapKey = std::uint64_t;

  /// Key of `addr` generalized to `len` bits.
  static constexpr MapKey key(IpAddress addr, unsigned len) noexcept {
    return key_halves(addr.hi(), addr.lo(), len);
  }

  /// Same, from raw left-aligned halves (PacketRecord::src_hi()/src_lo())
  /// — the batch loops read the halves straight off the record.
  static constexpr MapKey key_halves(std::uint64_t hi, std::uint64_t /*lo*/,
                                     unsigned len) noexcept {
    // hi >> 32 is the v4 address; mask then pack.
    const std::uint64_t bits = (hi >> 32) & prefix_mask32(len);
    return (bits << 8) | len;
  }

  /// Re-generalize an existing key to a shorter length.
  static constexpr MapKey truncate(MapKey k, unsigned len) noexcept {
    return ((k >> 8 & prefix_mask32(len)) << 8) | len;
  }

  /// Prefix length carried by the key.
  static constexpr unsigned length(MapKey k) noexcept {
    return static_cast<unsigned>(k & 0xFF);
  }

  /// Lift a map key back into the generic result type.
  static constexpr PrefixKey prefix(MapKey k) noexcept { return PrefixKey::from_v4_key(k); }

  /// Map key of a generic prefix. Precondition: p.is_v4().
  static constexpr MapKey map_key(PrefixKey p) noexcept { return p.v4_key(); }

  /// Hash functor. Same mixing as the pre-generic
  /// DefaultKeyHash<std::uint64_t>, so maps iterate in the pre-generic
  /// order (exact leaf blocks are written in key order regardless).
  struct Hash {
    /// mix64 of the packed key.
    std::uint64_t operator()(MapKey k) const noexcept { return mix64(k); }
  };

  /// Batch form of key_halves + Hash over `n` records' address halves
  /// (lo is unused for v4 but kept for signature parity with V6Domain).
  /// keys[i] and hashes[i] are bit-identical to the scalar
  /// key_halves(hi[i], lo[i], len) / Hash()(key) pair — the generalize
  /// loop is trivially vectorizable shifts/masks and the hash goes through
  /// the SIMD mix64 kernel.
  static void key_hash_batch(const std::uint64_t* hi, const std::uint64_t* /*lo*/,
                             unsigned len, MapKey* keys, std::uint64_t* hashes,
                             std::size_t n) noexcept {
    const std::uint64_t mask = prefix_mask32(len);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = (((hi[i] >> 32) & mask) << 8) | len;
    }
    simd::mix64_batch(keys, hashes, n);
  }

  /// Wire encoding: one u64 (identical to version-1 payloads).
  static void write_key(wire::Writer& w, MapKey k) { w.u64(k); }
  /// Inverse of write_key().
  static MapKey read_key(wire::Reader& r) { return r.u64(); }
};

/// IPv6 key codec: 128-bit + length struct keys.
struct V6Domain {
  static constexpr AddressFamily kFamily = AddressFamily::kIpv6;  ///< the domain's family
  static constexpr unsigned kAddressBits = 128;                   ///< address width

  /// The storage/hash key: canonical 128-bit address halves plus length.
  struct MapKey {
    std::uint64_t hi = 0;   ///< top 64 canonical address bits
    std::uint64_t lo = 0;   ///< bottom 64 canonical address bits
    std::uint32_t len = 0;  ///< prefix length (0..128)
    /// Member-wise equality.
    constexpr bool operator==(const MapKey&) const noexcept = default;
  };

  /// Key of `addr` generalized to `len` bits.
  static constexpr MapKey key(IpAddress addr, unsigned len) noexcept {
    return key_halves(addr.hi(), addr.lo(), len);
  }

  /// Same, from raw left-aligned halves (PacketRecord::src_hi()/src_lo()).
  static constexpr MapKey key_halves(std::uint64_t hi, std::uint64_t lo,
                                     unsigned len) noexcept {
    return MapKey{hi & prefix_mask64(len), lo & prefix_mask64(len > 64 ? len - 64 : 0),
                  len};
  }

  /// Re-generalize an existing key to a shorter length.
  static constexpr MapKey truncate(MapKey k, unsigned len) noexcept {
    return MapKey{k.hi & prefix_mask64(len),
                  k.lo & prefix_mask64(len > 64 ? len - 64 : 0), len};
  }

  /// Prefix length carried by the key.
  static constexpr unsigned length(MapKey k) noexcept { return k.len; }

  /// Lift a map key back into the generic result type.
  static constexpr PrefixKey prefix(MapKey k) noexcept {
    return PrefixKey(IpAddress::v6(k.hi, k.lo), k.len);
  }

  /// Map key of a generic prefix. Precondition: !p.is_v4().
  static constexpr MapKey map_key(PrefixKey p) noexcept {
    return MapKey{p.bits_hi(), p.bits_lo(), p.length()};
  }

  /// Hash functor over the 128-bit keys.
  struct Hash {
    /// Chained mix64 over both halves and the length.
    std::uint64_t operator()(const MapKey& k) const noexcept {
      return mix64(mix64(k.hi + 0x9E3779B97F4A7C15ULL * (k.len + 1)) ^ k.lo);
    }
  };

  /// Batch form of key_halves + Hash over `n` records' address halves.
  /// The chained 128-bit hash decomposes into two batch mix64 steps
  /// (see util/simd.hpp): h = mix64(khi + C*(len+1)); h = mix64(h ^ klo) —
  /// bit-identical to Hash()(key_halves(hi[i], lo[i], len)) per element.
  static void key_hash_batch(const std::uint64_t* hi, const std::uint64_t* lo,
                             unsigned len, MapKey* keys, std::uint64_t* hashes,
                             std::size_t n) noexcept {
    const std::uint64_t mask_hi = prefix_mask64(len);
    const std::uint64_t mask_lo = prefix_mask64(len > 64 ? len - 64 : 0);
    const std::uint64_t seed = 0x9E3779B97F4A7C15ULL * (len + 1);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = MapKey{hi[i] & mask_hi, lo[i] & mask_lo, len};
      hashes[i] = keys[i].hi + seed;
    }
    simd::mix64_batch(hashes, hashes, n);
    // Second chain link needs the masked lo halves contiguous; gather into
    // a caller-invisible pass using the keys we just built.
    for (std::size_t i = 0; i < n; ++i) hashes[i] ^= keys[i].lo;
    simd::mix64_batch(hashes, hashes, n);
  }

  /// Wire encoding: u64 hi, u64 lo, u8 len.
  static void write_key(wire::Writer& w, const MapKey& k) {
    w.u64(k.hi);
    w.u64(k.lo);
    w.u8(static_cast<std::uint8_t>(k.len));
  }
  /// Inverse of write_key(); validates len <= 128.
  static MapKey read_key(wire::Reader& r) {
    MapKey k;
    k.hi = r.u64();
    k.lo = r.u64();
    k.len = r.u8();
    wire::check(k.len <= 128, wire::WireError::kBadValue, "v6 prefix length > 128");
    return k;
  }
};

}  // namespace hhh
