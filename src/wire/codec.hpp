/// \file
/// Shared field codecs for library types that appear in many payloads
/// (Hierarchy, PrefixKey, Duration/TimePoint, HhhSet). Implementation-side
/// header: included by .cpp files that implement save_state/load_state,
/// never by public headers.
///
/// Version awareness: writers always emit the family-generic shape of
/// versions 2-3; readers branch on Reader::version() so that version-1
/// (IPv4-only) payloads decode unchanged — a v1 hierarchy has no family
/// byte and a v1 prefix is a packed 64-bit key.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/hhh_types.hpp"
#include "net/hierarchy.hpp"
#include "wire/wire.hpp"
#include "util/sim_time.hpp"

namespace hhh::wire {

/// Decode and validate an AddressFamily byte.
inline AddressFamily read_family(Reader& r) {
  const std::uint8_t f = r.u8();
  check(f == static_cast<std::uint8_t>(AddressFamily::kIpv4) ||
            f == static_cast<std::uint8_t>(AddressFamily::kIpv6),
        WireError::kBadValue, "unknown address family");
  return static_cast<AddressFamily>(f);
}

/// Encode a Hierarchy as (u8 family, u8 level count, u8 length per level).
inline void write_hierarchy(Writer& w, const Hierarchy& h) {
  w.u8(static_cast<std::uint8_t>(h.family()));
  w.u8(static_cast<std::uint8_t>(h.levels()));
  for (const unsigned len : h.lengths()) w.u8(static_cast<std::uint8_t>(len));
}

/// Decode a Hierarchy; version-1 payloads have no family byte (IPv4).
/// Structural violations (non-decreasing lengths, missing root, length
/// beyond the family width) surface as kBadValue.
inline Hierarchy read_hierarchy(Reader& r) {
  const AddressFamily family =
      r.version() >= 2 ? read_family(r) : AddressFamily::kIpv4;
  const std::size_t levels = r.u8();
  std::vector<unsigned> lengths;
  lengths.reserve(levels);
  for (std::size_t i = 0; i < levels; ++i) lengths.push_back(r.u8());
  try {
    return Hierarchy(std::move(lengths), family);
  } catch (const std::invalid_argument& e) {
    throw WireFormatError(WireError::kBadValue, e.what());
  }
}

/// Encode one prefix: u8 family, then the family's key shape (v4: packed
/// u64; v6: u64 hi, u64 lo, u8 len).
inline void write_prefix(Writer& w, PrefixKey p) {
  w.u8(static_cast<std::uint8_t>(p.family()));
  if (p.is_v4()) {
    w.u64(p.v4_key());
  } else {
    w.u64(p.bits_hi());
    w.u64(p.bits_lo());
    w.u8(static_cast<std::uint8_t>(p.length()));
  }
}

/// Decode one prefix; version-1 payloads are bare packed v4 keys.
inline PrefixKey read_prefix(Reader& r) {
  if (r.version() < 2) {
    const std::uint64_t key = r.u64();
    check((key & 0xFF) <= 32, WireError::kBadValue, "prefix length > 32");
    return PrefixKey::from_v4_key(key);
  }
  const AddressFamily family = read_family(r);
  if (family == AddressFamily::kIpv4) {
    const std::uint64_t key = r.u64();
    check((key & 0xFF) <= 32, WireError::kBadValue, "prefix length > 32");
    return PrefixKey::from_v4_key(key);
  }
  const std::uint64_t hi = r.u64();
  const std::uint64_t lo = r.u64();
  const unsigned len = r.u8();
  check(len <= 128, WireError::kBadValue, "prefix length > 128");
  return PrefixKey(IpAddress::v6(hi, lo), len);
}

/// Encode a Duration as i64 nanoseconds.
inline void write_duration(Writer& w, Duration d) { w.i64(d.ns()); }

/// Decode a Duration from i64 nanoseconds.
inline Duration read_duration(Reader& r) { return Duration::nanos(r.i64()); }

/// Encode a TimePoint as i64 nanoseconds since trace start.
inline void write_timepoint(Writer& w, TimePoint t) { w.i64(t.ns()); }

/// Decode a TimePoint from i64 nanoseconds.
inline TimePoint read_timepoint(Reader& r) { return TimePoint::from_ns(r.i64()); }

/// Encode one HhhSet: scope totals plus (prefix, total, conditioned) items.
inline void write_hhh_set(Writer& w, const HhhSet& set) {
  w.u64(set.total_bytes);
  w.u64(set.threshold_bytes);
  w.u64(set.size());
  for (const auto& item : set.items()) {
    write_prefix(w, item.prefix);
    w.u64(item.total_bytes);
    w.u64(item.conditioned_bytes);
  }
}

/// Decode one HhhSet.
inline HhhSet read_hhh_set(Reader& r) {
  HhhSet set;
  set.total_bytes = r.u64();
  set.threshold_bytes = r.u64();
  const std::uint64_t n = r.count(24);
  for (std::uint64_t i = 0; i < n; ++i) {
    HhhItem item;
    item.prefix = read_prefix(r);
    item.total_bytes = r.u64();
    item.conditioned_bytes = r.u64();
    set.add(item);
  }
  return set;
}

}  // namespace hhh::wire
