// Tests for the multi-threshold extraction and the Fig. 2 grid analysis —
// the φ-sweep fast paths must agree exactly with the single-φ reference
// implementations they accelerate.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/hidden_analysis.hpp"
#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/random.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }

LevelAggregates random_aggregates(std::uint64_t seed, int n) {
  Rng rng(seed);
  LevelAggregates agg(Hierarchy::byte_granularity());
  for (int i = 0; i < n; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.below(30)) << 24 |
                        static_cast<std::uint32_t>(rng.below(6)) << 16 |
                        static_cast<std::uint32_t>(rng.below(6)) << 8 |
                        static_cast<std::uint32_t>(rng.below(8)));
    agg.add(a, 1 + rng.below(1500));
  }
  return agg;
}

class MultiExtract : public ::testing::TestWithParam<int> {};

TEST_P(MultiExtract, AgreesWithSingleExtraction) {
  const auto agg = random_aggregates(static_cast<std::uint64_t>(GetParam()), 4000);
  const std::uint64_t total = agg.total_bytes();
  const std::vector<std::uint64_t> thresholds = {
      total / 100, total / 20, total / 10, total / 4, 1};

  const auto multi = extract_hhh_multi(agg, thresholds);
  ASSERT_EQ(multi.size(), thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const auto single = extract_hhh(agg, thresholds[i]);
    EXPECT_EQ(multi[i].prefixes(), single.prefixes()) << "threshold " << thresholds[i];
    EXPECT_EQ(multi[i].threshold_bytes, single.threshold_bytes);
    EXPECT_EQ(multi[i].total_bytes, single.total_bytes);
    // Conditioned counts item-by-item.
    auto a = multi[i].items();
    auto b = single.items();
    const auto by_prefix = [](const HhhItem& x, const HhhItem& y) {
      return x.prefix < y.prefix;
    };
    std::sort(a.begin(), a.end(), by_prefix);
    std::sort(b.begin(), b.end(), by_prefix);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].conditioned_bytes, b[k].conditioned_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiExtract, ::testing::Range(1, 6));

TEST(MultiExtract, RejectsTooManyThresholds) {
  const auto agg = random_aggregates(1, 100);
  const std::vector<std::uint64_t> nine(9, 100);
  EXPECT_THROW(extract_hhh_multi(agg, nine), std::invalid_argument);
}

TEST(MultiExtract, EmptyThresholdListYieldsNothing) {
  const auto agg = random_aggregates(1, 100);
  EXPECT_TRUE(extract_hhh_multi(agg, {}).empty());
}

TEST(MultiExtract, RelativeVariantMatches) {
  const auto agg = random_aggregates(7, 3000);
  const std::vector<double> phis = {0.01, 0.05, 0.2};
  const auto multi = extract_hhh_multi_relative(agg, phis);
  for (std::size_t i = 0; i < phis.size(); ++i) {
    const auto single = extract_hhh_relative(agg, phis[i]);
    EXPECT_EQ(multi[i].prefixes(), single.prefixes());
  }
}

// The grid analysis must agree with the single-cell reference on every
// cell (metric A fields; metric B is grid-only and is sanity-checked).
TEST(HiddenGrid, AgreesWithSingleCellAnalysis) {
  auto cfg = TraceConfig::caida_like_day(0, Duration::seconds(45), 1200.0);
  cfg.address_space.num_slash8 = 10;
  cfg.address_space.slash16_per_8 = 6;
  cfg.address_space.slash24_per_16 = 4;
  cfg.address_space.hosts_per_24 = 4;
  const auto packets = SyntheticTraceGenerator(cfg).generate_all();

  const Duration windows[] = {Duration::seconds(5), Duration::seconds(10)};
  const double phis[] = {0.01, 0.05};
  const auto grid = analyze_hidden_hhh_grid(packets, windows, Duration::seconds(1), phis,
                                            Hierarchy::byte_granularity());
  ASSERT_EQ(grid.size(), 2u);
  ASSERT_EQ(grid[0].size(), 2u);

  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t f = 0; f < 2; ++f) {
      HiddenHhhParams params;
      params.window = windows[w];
      params.phi = phis[f];
      const auto single = analyze_hidden_hhh(packets, params);
      const auto& cell = grid[w][f];
      EXPECT_EQ(cell.sliding_prefixes, single.sliding_prefixes) << w << "," << f;
      EXPECT_EQ(cell.disjoint_prefixes, single.disjoint_prefixes) << w << "," << f;
      EXPECT_EQ(cell.hidden, single.hidden) << w << "," << f;
      EXPECT_EQ(cell.union_size, single.union_size);
      EXPECT_EQ(cell.disjoint_windows, single.disjoint_windows);
      EXPECT_EQ(cell.sliding_reports, single.sliding_reports);
    }
  }
}

TEST(HiddenGrid, MetricBInstancesAreConsistent) {
  auto cfg = TraceConfig::caida_like_day(1, Duration::seconds(45), 1200.0);
  const auto packets = SyntheticTraceGenerator(cfg).generate_all();
  const Duration windows[] = {Duration::seconds(5)};
  const double phis[] = {0.01};
  const auto grid = analyze_hidden_hhh_grid(packets, windows, Duration::seconds(1), phis,
                                            Hierarchy::byte_granularity());
  const auto& cell = grid[0][0];
  // Hidden instances cannot exceed union instances; a window's union is at
  // least its own report, so union instances >= disjoint window count when
  // traffic flows in every window.
  EXPECT_LE(cell.windowed_hidden_instances, cell.windowed_union_instances);
  EXPECT_GE(cell.windowed_union_instances, cell.disjoint_windows);
  EXPECT_GE(cell.windowed_hidden_fraction(), 0.0);
  EXPECT_LE(cell.windowed_hidden_fraction(), 1.0);
}

TEST(HiddenGrid, DegenerateParamsReturnEmptyCells) {
  std::vector<PacketRecord> packets;
  PacketRecord p;
  p.ts = TimePoint::from_seconds(0.5);
  p.set_src(ip("1.2.3.4"));
  p.ip_len = 100;
  packets.push_back(p);
  // Window not a multiple of step: the grid returns empty results rather
  // than crashing (callers sweep many configurations).
  const Duration windows[] = {Duration::seconds(10)};
  const double phis[] = {0.01};
  const auto grid = analyze_hidden_hhh_grid(packets, windows, Duration::seconds(3), phis,
                                            Hierarchy::byte_granularity());
  EXPECT_EQ(grid[0][0].union_size, 0u);
}

}  // namespace
}  // namespace hhh
