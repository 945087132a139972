#include "analysis/hidden_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact_hhh.hpp"
#include "harness/trace_builder.hpp"
#include "util/random.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }

PacketRecord pkt(double t, Ipv4Address src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t);
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

/// Steady background from one source plus a burst from another, placed to
/// straddle a disjoint boundary. The burst's halves fall below the per-
/// window threshold in both disjoint windows, but a sliding position
/// containing the whole burst reveals it: a constructed hidden HHH.
std::vector<PacketRecord> boundary_straddling_trace() {
  std::vector<PacketRecord> packets;
  // Background: 100 B every 10 ms from 50.0.0.1 -> 10 kB/s, total per 10 s
  // window = 100 kB. Threshold phi=0.3 -> ~30 kB+ needed.
  for (int i = 0; i < 3000; ++i) {
    packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  }
  // Burst: 60.0.0.1 sends 40 kB during [8, 12): 20 kB in window 0 (total
  // 120 kB, T=36 kB -> below), 20 kB in window 1 (same) — but the sliding
  // window ending at 12 s contains all 40 kB of it (window total ~140kB,
  // T=42kB... tune burst to 60 kB to clear it).
  for (int i = 0; i < 600; ++i) {
    packets.push_back(pkt(8.0 + i * (4.0 / 600.0), ip("60.0.0.1"), 100));
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.ts < b.ts; });
  return packets;
}

TEST(HiddenAnalysis, BoundaryStraddlingBurstIsHidden) {
  const auto packets = boundary_straddling_trace();
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.step = Duration::seconds(1);
  params.phi = 0.25;

  const auto result = analyze_hidden_hhh(packets, params);

  // The burst source must be hidden: found by sliding, not by disjoint.
  const bool burst_in_sliding =
      std::binary_search(result.sliding_prefixes.begin(), result.sliding_prefixes.end(),
                         pfx("60.0.0.1/32"));
  const bool burst_in_disjoint =
      std::binary_search(result.disjoint_prefixes.begin(), result.disjoint_prefixes.end(),
                         pfx("60.0.0.1/32"));
  EXPECT_TRUE(burst_in_sliding);
  EXPECT_FALSE(burst_in_disjoint);
  const bool burst_hidden = std::binary_search(result.hidden.begin(), result.hidden.end(),
                                               pfx("60.0.0.1/32"));
  EXPECT_TRUE(burst_hidden);
  EXPECT_GT(result.hidden_fraction_of_union(), 0.0);
  EXPECT_GE(result.hidden_fraction_of_sliding(), result.hidden_fraction_of_union());
}

TEST(HiddenAnalysis, NoHiddenOnPerfectlyStationaryTraffic) {
  // One constant-rate source: the same HHH set in every window of every
  // model — nothing can hide.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 4000; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.phi = 0.5;
  const auto result = analyze_hidden_hhh(packets, params);
  EXPECT_TRUE(result.hidden.empty());
  EXPECT_DOUBLE_EQ(result.hidden_fraction_of_union(), 0.0);
}

TEST(HiddenAnalysis, EmptyTrace) {
  const auto result = analyze_hidden_hhh({}, HiddenHhhParams{});
  EXPECT_EQ(result.union_size, 0u);
  EXPECT_TRUE(result.hidden.empty());
  EXPECT_DOUBLE_EQ(result.hidden_fraction_of_union(), 0.0);
}

TEST(HiddenAnalysis, CountsWindowsAndSteps) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 2100; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  HiddenHhhParams params;
  params.window = Duration::seconds(5);
  params.step = Duration::seconds(1);
  const auto result = analyze_hidden_hhh(packets, params);
  // 21 s of traffic: 4 disjoint windows of 5 s; sliding reports at
  // t=5..21 -> 17? (last packet at 20.99 closes steps through 20).
  EXPECT_EQ(result.disjoint_windows, 4u);
  EXPECT_GE(result.sliding_reports, 15u);
}

TEST(HiddenAnalysis, V6MatchesBruteForceUnions) {
  // Both entry points run on a v6 hierarchy, and their hidden set is the
  // brute-force sliding union minus the brute-force disjoint union.
  const auto packets =
      harness::TraceBuilder(0x6D1D).compact_space().v6_fraction(1.0).duration_seconds(24.0).all();
  ASSERT_FALSE(packets.empty());
  const Hierarchy hierarchy = Hierarchy::v6_byte_granularity();
  const Duration window = Duration::seconds(6);
  const Duration step = Duration::seconds(2);
  const std::vector<double> phis = {0.05, 0.2};

  const auto brute_union = [&](Duration stride) {
    std::vector<PrefixUnion> unions(phis.size());
    for (TimePoint end = TimePoint() + window; end <= packets.back().ts; end += stride) {
      std::vector<PacketRecord> in_window;
      for (const auto& p : packets) {
        if (p.ts >= end - window && p.ts < end) in_window.push_back(p);
      }
      for (std::size_t i = 0; i < phis.size(); ++i) {
        unions[i].add(exact_hhh_of(in_window, hierarchy, phis[i]).prefixes());
      }
    }
    return unions;
  };
  const auto sliding = brute_union(step);
  const auto disjoint = brute_union(window);

  const std::vector<Duration> windows = {window};
  const auto grid = analyze_hidden_hhh_grid(packets, windows, step, phis, hierarchy);
  for (std::size_t i = 0; i < phis.size(); ++i) {
    const auto cell = analyze_hidden_hhh(
        packets, {.window = window, .step = step, .phi = phis[i], .hierarchy = hierarchy});
    const auto expected = prefix_difference(sliding[i].values(), disjoint[i].values());
    ASSERT_FALSE(sliding[i].values().empty());
    EXPECT_FALSE(sliding[i].values().front().is_v4());
    EXPECT_EQ(cell.sliding_prefixes, sliding[i].values()) << "phi " << phis[i];
    EXPECT_EQ(cell.disjoint_prefixes, disjoint[i].values()) << "phi " << phis[i];
    EXPECT_EQ(cell.hidden, expected) << "phi " << phis[i];
    EXPECT_EQ(grid[0][i].hidden, expected) << "phi " << phis[i];
    EXPECT_EQ(grid[0][i].sliding_reports, cell.sliding_reports) << "phi " << phis[i];
    EXPECT_EQ(grid[0][i].disjoint_windows, cell.disjoint_windows) << "phi " << phis[i];
  }
}

// --- Figure 3 machinery -------------------------------------------------------

TEST(WindowSimilarity, IdenticalWindowsWhenDeltaTiny) {
  // delta far below the inter-packet gap: every pair identical, J = 1.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 2000; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(5);
  params.deltas = {Duration::micros(1)};
  params.phi = 0.3;
  const auto result = analyze_window_similarity(packets, params);
  ASSERT_EQ(result.points.size(), 1u);
  ASSERT_GT(result.points[0].pairs, 0u);
  EXPECT_DOUBLE_EQ(result.points[0].jaccard.min(), 1.0);
}

TEST(WindowSimilarity, PairingStopsWhenWindowsSeparate) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 10000; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(5);
  params.deltas = {Duration::seconds(1)};  // large delta: overlap dies fast
  params.phi = 0.3;
  const auto result = analyze_window_similarity(packets, params);
  // Overlap condition (i+1)*delta < W: i < 4 -> at most 4 pairs.
  EXPECT_LE(result.points[0].pairs, 4u);
}

TEST(WindowSimilarity, RejectsBadDelta) {
  std::vector<PacketRecord> packets = {pkt(0.5, ip("50.0.0.1"), 100)};
  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(5);
  params.deltas = {Duration::seconds(5)};
  EXPECT_THROW(analyze_window_similarity(packets, params), std::invalid_argument);
  params.deltas = {Duration::seconds(0)};
  EXPECT_THROW(analyze_window_similarity(packets, params), std::invalid_argument);
}

TEST(WindowSimilarity, BorderlineHhhFlipsWithShorterWindow) {
  // Construct a window where one source sits just above threshold: the
  // shortened window drops its last packets, pushing it below — Jaccard
  // dips below 1 for the affected pair.
  std::vector<PacketRecord> packets;
  // Window [0, 10): background 100 kB from A spread evenly (plus a tail
  // past t=10 so the baseline window actually closes); B sends 26 kB with
  // its packets concentrated in the last 150 ms of the window.
  for (int i = 0; i < 1100; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  for (int i = 0; i < 26; ++i) {
    packets.push_back(pkt(9.86 + i * 0.005, ip("60.0.0.1"), 1000));
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.ts < b.ts; });

  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(10);
  params.deltas = {Duration::millis(100)};
  params.phi = 0.2;  // T ~ 25.2 kB of 126 kB: B barely qualifies
  const auto result = analyze_window_similarity(packets, params);
  ASSERT_GT(result.points[0].pairs, 0u);
  EXPECT_LT(result.points[0].jaccard.min(), 1.0)
      << "shortening the window must flip the borderline HHH";
}

TEST(WindowSimilarity, EmptyTraceYieldsNoPoints) {
  WindowSimilarityParams params;
  params.deltas = {Duration::millis(10)};
  const auto result = analyze_window_similarity({}, params);
  EXPECT_TRUE(result.points.empty());
}

}  // namespace
}  // namespace hhh
