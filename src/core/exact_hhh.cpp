#include "core/exact_hhh.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace hhh {
namespace {

constexpr std::size_t kMaxThresholds = 8;

// Residuals for one prefix under every threshold being extracted. An HHH
// child under threshold i contributes 0 to slot i of its parent; a
// non-HHH child contributes its slot-i residual.
using ResidualVec = std::array<std::uint64_t, kMaxThresholds>;

/// Length of the longest common prefix of two keys' addresses.
template <typename D>
unsigned common_length(const typename D::MapKey& a, const typename D::MapKey& b) {
  if constexpr (std::is_same_v<D, V6Domain>) {
    return a.hi != b.hi ? std::countl_zero(a.hi ^ b.hi) : 64 + std::countl_zero(a.lo ^ b.lo);
  } else {
    return std::countl_zero(static_cast<std::uint32_t>((a ^ b) >> 8));
  }
}

}  // namespace

template <typename D>
std::vector<HhhSet> extract_hhh_multi(const BasicLevelAggregates<D>& agg,
                                      std::span<const std::uint64_t> thresholds) {
  using MapKey = typename D::MapKey;
  const std::size_t k = thresholds.size();
  if (k == 0) return {};
  if (k > kMaxThresholds) {
    throw std::invalid_argument("extract_hhh_multi: more than 8 thresholds");
  }
  const Hierarchy& hierarchy = agg.hierarchy();
  const std::size_t levels = hierarchy.levels();

  ResidualVec t{};
  std::vector<HhhSet> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    t[i] = std::max<std::uint64_t>(thresholds[i], 1);
    results[i].total_bytes = agg.total_bytes();
    results[i].threshold_bytes = t[i];
  }
  // The leaves in address order: every prefix of every level is then one
  // contiguous run of leaves, settled in one pass as soon as its run ends.
  // No sort when the aggregates' run is current (a frozen window, a
  // decoded frame, a merge).
  typename BasicLevelAggregates<D>::Run scratch;
  const auto leaves = agg.sorted_leaves(scratch);
  if (leaves.empty()) return results;

  // A prefix's total and its residual under each threshold.
  struct Sums {
    std::uint64_t total = 0;
    ResidualVec residual{};
  };
  // open[level]: the sums passed up so far to the level's current prefix,
  // the one holding the last leaf visited.
  std::vector<Sums> open(levels);
  // found[level * k + i]: the level's HHHs under threshold i, settled in
  // ascending prefix order.
  std::vector<std::vector<HhhItem>> found(levels * k);

  // The prefix of `leaf` at `level` is complete: report it under each
  // threshold it reaches, and pass its total, and each residual it does
  // not report, to its parent.
  const auto settle = [&](std::size_t level, const MapKey& leaf, const Sums& sums) {
    Sums* parent = level + 1 < levels ? &open[level + 1] : nullptr;
    if (parent) parent->total += sums.total;
    for (std::size_t i = 0; i < k; ++i) {
      if (sums.residual[i] >= t[i]) {
        // HHH absorbs its subtree under threshold i: contributes 0 up.
        const PrefixKey prefix = D::prefix(D::truncate(leaf, hierarchy.length_at(level)));
        found[level * k + i].push_back(HhhItem{prefix, sums.total, sums.residual[i]});
      } else if (parent) {
        parent->residual[i] += sums.residual[i];
      }
    }
  };
  const MapKey* previous = nullptr;
  for (const auto& [leaf, bytes] : leaves) {
    if (previous != nullptr) {
      // Settle the prefixes this leaf leaves: those longer than the prefix
      // it shares with the previous leaf.
      const unsigned shared = common_length<D>(*previous, leaf);
      for (std::size_t level = 1; level < levels && hierarchy.length_at(level) > shared;
           ++level) {
        settle(level, *previous, open[level]);
        open[level] = Sums{};
      }
    }
    Sums sums{bytes, {}};
    sums.residual.fill(bytes);
    settle(0, leaf, sums);
    previous = &leaf;
  }
  for (std::size_t level = 1; level < levels; ++level) settle(level, *previous, open[level]);

  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t i = 0; i < k; ++i) {
      for (const HhhItem& item : found[level * k + i]) results[i].add(item);
    }
  }
  return results;
}

template <typename D>
std::vector<HhhSet> extract_hhh_multi_relative(const BasicLevelAggregates<D>& agg,
                                               std::span<const double> phis) {
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(phis.size());
  for (const double phi : phis) {
    thresholds.push_back(
        static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(agg.total_bytes()))));
  }
  return extract_hhh_multi(agg, thresholds);
}

template <typename D>
HhhSet extract_hhh(const BasicLevelAggregates<D>& agg, std::uint64_t threshold_bytes) {
  auto results = extract_hhh_multi(agg, std::span<const std::uint64_t>(&threshold_bytes, 1));
  return std::move(results.front());
}

template <typename D>
HhhSet extract_hhh_relative(const BasicLevelAggregates<D>& agg, double phi) {
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(agg.total_bytes())));
  return extract_hhh(agg, threshold);
}

HhhSet exact_hhh_of(std::span<const PacketRecord> packets, const Hierarchy& hierarchy,
                    double phi) {
  if (hierarchy.family() == AddressFamily::kIpv4) {
    LevelAggregates agg(hierarchy);
    for (const auto& p : packets) {
      if (p.family() == AddressFamily::kIpv4) agg.add(p.src(), p.ip_len);
    }
    return extract_hhh_relative(agg, phi);
  }
  LevelAggregatesV6 agg(hierarchy);
  for (const auto& p : packets) {
    if (p.family() == AddressFamily::kIpv6) agg.add(p.src(), p.ip_len);
  }
  return extract_hhh_relative(agg, phi);
}

template HhhSet extract_hhh<V4Domain>(const BasicLevelAggregates<V4Domain>&, std::uint64_t);
template HhhSet extract_hhh<V6Domain>(const BasicLevelAggregates<V6Domain>&, std::uint64_t);
template HhhSet extract_hhh_relative<V4Domain>(const BasicLevelAggregates<V4Domain>&, double);
template HhhSet extract_hhh_relative<V6Domain>(const BasicLevelAggregates<V6Domain>&, double);
template std::vector<HhhSet> extract_hhh_multi<V4Domain>(
    const BasicLevelAggregates<V4Domain>&, std::span<const std::uint64_t>);
template std::vector<HhhSet> extract_hhh_multi<V6Domain>(
    const BasicLevelAggregates<V6Domain>&, std::span<const std::uint64_t>);
template std::vector<HhhSet> extract_hhh_multi_relative<V4Domain>(
    const BasicLevelAggregates<V4Domain>&, std::span<const double>);
template std::vector<HhhSet> extract_hhh_multi_relative<V6Domain>(
    const BasicLevelAggregates<V6Domain>&, std::span<const double>);

}  // namespace hhh
