// Golden HHH-set comparators with per-prefix diff output.
//
// A failed EXPECT_TRUE(hhh_sets_equal(...)) prints, for every prefix that
// differs, which side has it and with what volumes — instead of two opaque
// to_string() dumps the reader must eyeball.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "core/level_aggregates.hpp"

namespace hhh::harness {

/// Exact golden match: same prefixes, same conditioned/total volumes, same
/// scope totals. For exact engines and byte-precise fixtures.
::testing::AssertionResult hhh_sets_equal(const HhhSet& expected, const HhhSet& actual);

/// Same prefix *sets*, ignoring volumes — for approximate engines whose
/// membership must match a golden but whose estimates wobble.
::testing::AssertionResult hhh_prefixes_equal(const HhhSet& expected, const HhhSet& actual);

/// Every prefix in `required` appears in `actual` (superset check).
::testing::AssertionResult hhh_set_covers(const HhhSet& actual,
                                          const std::vector<PrefixKey>& required);

/// Same prefixes, volumes within `rel_tol` relative error (e.g. 0.1 allows
/// a 10% deviation per item) — the sketch-engine golden.
::testing::AssertionResult hhh_sets_close(const HhhSet& expected, const HhhSet& actual,
                                          double rel_tol);

/// Human-readable per-prefix diff ("only in expected / only in actual /
/// volume mismatch"), used by all comparators above.
std::string diff_hhh_sets(const HhhSet& expected, const HhhSet& actual);

/// Every hierarchy level of `agg` as an ordered prefix -> bytes map. Each
/// level is derived once: LevelAggregates' per-level views cost O(distinct
/// leaves) a call, so checking counters key by key through count() would
/// be quadratic.
template <typename D>
std::vector<std::map<PrefixKey, std::uint64_t>> level_counters(
    const BasicLevelAggregates<D>& agg) {
  std::vector<std::map<PrefixKey, std::uint64_t>> levels(agg.hierarchy().levels());
  for (std::size_t level = 0; level < levels.size(); ++level) {
    agg.for_each_at(level, [&](const typename D::MapKey& key, std::uint64_t bytes) {
      levels[level].emplace(D::prefix(key), bytes);
    });
  }
  return levels;
}

}  // namespace hhh::harness
