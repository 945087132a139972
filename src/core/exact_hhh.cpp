#include "core/exact_hhh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/flat_hash_map.hpp"

namespace hhh {
namespace {

constexpr std::size_t kMaxThresholds = 8;

// Residuals for one prefix under every threshold being extracted. An HHH
// child under threshold i contributes 0 to slot i of its parent; a
// non-HHH child contributes its slot-i residual.
using ResidualVec = std::array<std::uint64_t, kMaxThresholds>;

// Move one level's HHHs into `out` in canonical order: ascending prefix.
// Without the sort the order would follow hash-table capacity and history,
// so equal counters held in differently sized maps would report differently.
void append_level(std::vector<HhhItem>& found, HhhSet& out) {
  std::sort(found.begin(), found.end(),
            [](const HhhItem& a, const HhhItem& b) { return a.prefix < b.prefix; });
  for (const HhhItem& item : found) out.add(item);
  found.clear();
}

/// Single-threshold extraction with scalar residuals — the hot path for
/// per-window reports. extract_hhh_multi's array-valued residual maps pay
/// ~8x the slot size in robin-hood displacement, which matters when a
/// window holds hundreds of thousands of distinct prefixes.
template <typename D>
HhhSet extract_hhh_single(const BasicLevelAggregates<D>& agg,
                          std::uint64_t threshold_bytes) {
  using MapKey = typename D::MapKey;
  using Map = FlatHashMap<MapKey, std::uint64_t, typename D::Hash>;
  const Hierarchy& hierarchy = agg.hierarchy();
  const std::uint64_t threshold = std::max<std::uint64_t>(threshold_bytes, 1);

  HhhSet result;
  result.total_bytes = agg.total_bytes();
  result.threshold_bytes = threshold;

  // The leaf level is read straight from `agg` (there every prefix's
  // residual is its total); only the levels above get residual maps.
  Map residual;
  std::vector<HhhItem> found;
  for (std::size_t level = 0; level < hierarchy.levels(); ++level) {
    const bool has_parent = level + 1 < hierarchy.levels();
    const unsigned parent_len = has_parent ? hierarchy.length_at(level + 1) : 0;
    Map parent_residual(has_parent ? agg.distinct_at(level + 1) * 2 + 16 : 16);

    const auto visit = [&](const MapKey& key, std::uint64_t res) {
      if (res >= threshold) {
        const PrefixKey prefix = D::prefix(key);
        found.push_back(HhhItem{prefix, agg.count(prefix), res});
        return;  // HHH absorbs its subtree
      }
      if (has_parent && res > 0) {
        parent_residual[D::truncate(key, parent_len)] += res;
      }
    };
    if (level == 0) {
      agg.for_each_at(0, visit);
    } else {
      residual.for_each(visit);
    }
    append_level(found, result);
    residual = std::move(parent_residual);
  }
  return result;
}

}  // namespace

template <typename D>
std::vector<HhhSet> extract_hhh_multi(const BasicLevelAggregates<D>& agg,
                                      std::span<const std::uint64_t> thresholds) {
  using MapKey = typename D::MapKey;
  using ResidualMap = FlatHashMap<MapKey, ResidualVec, typename D::Hash>;
  const std::size_t k = thresholds.size();
  if (k == 0) return {};
  if (k > kMaxThresholds) {
    throw std::invalid_argument("extract_hhh_multi: more than 8 thresholds");
  }
  if (k == 1) {
    std::vector<HhhSet> one;
    one.push_back(extract_hhh_single(agg, thresholds[0]));
    return one;
  }
  const Hierarchy& hierarchy = agg.hierarchy();

  std::array<std::uint64_t, kMaxThresholds> t{};
  std::vector<HhhSet> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    t[i] = std::max<std::uint64_t>(thresholds[i], 1);
    results[i].total_bytes = agg.total_bytes();
    results[i].threshold_bytes = t[i];
  }

  // As in extract_hhh_single, the leaf level is read straight from `agg`.
  ResidualMap residual;
  std::array<std::vector<HhhItem>, kMaxThresholds> found;
  for (std::size_t level = 0; level < hierarchy.levels(); ++level) {
    const bool has_parent = level + 1 < hierarchy.levels();
    const unsigned parent_len = has_parent ? hierarchy.length_at(level + 1) : 0;
    ResidualMap parent_residual(has_parent ? agg.distinct_at(level + 1) * 2 + 16 : 16);

    const auto visit = [&](const MapKey& key, const ResidualVec& res) {
      // The prefix's total is fetched lazily, only when some threshold
      // marks it as an HHH (count() is a hash lookup).
      std::uint64_t total = 0;
      bool have_total = false;
      PrefixKey prefix;
      ResidualVec up{};
      bool any_up = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (res[i] >= t[i]) {
          if (!have_total) {
            prefix = D::prefix(key);
            total = agg.count(prefix);
            have_total = true;
          }
          found[i].push_back(HhhItem{prefix, total, res[i]});
          // HHH absorbs its subtree under threshold i: contributes 0 up.
        } else if (res[i] > 0) {
          up[i] = res[i];
          any_up = true;
        }
      }
      if (has_parent && any_up) {
        ResidualVec& parent = parent_residual[D::truncate(key, parent_len)];
        for (std::size_t i = 0; i < k; ++i) parent[i] += up[i];
      }
    };
    if (level == 0) {
      agg.for_each_at(0, [&](const MapKey& key, std::uint64_t bytes) {
        ResidualVec leaf{};
        for (std::size_t i = 0; i < k; ++i) leaf[i] = bytes;
        visit(key, leaf);
      });
    } else {
      residual.for_each(visit);
    }
    for (std::size_t i = 0; i < k; ++i) append_level(found[i], results[i]);
    residual = std::move(parent_residual);
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
