#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/exact_hhh.hpp"
#include "core/sliding_window.hpp"
#include "harness/pipeline_axis.hpp"
#include "pipeline/pipeline.hpp"
#include "util/random.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }

PacketRecord pkt(double t_seconds, Ipv4Address src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t_seconds);
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

// --- Disjoint windows (the pipeline's disjoint policy) ----------------------

std::vector<WindowReport> disjoint_reports(const std::vector<PacketRecord>& packets,
                                           Duration window, double phi, TimePoint end) {
  return harness::disjoint_pipeline_reports(packets, window, phi, end);
}

TEST(DisjointWindow, ClosesWindowsOnTimeBoundaries) {
  std::vector<PacketRecord> packets = {pkt(1.0, ip("10.0.0.1"), 100),
                                       pkt(9.0, ip("10.0.0.1"), 100)};
  EXPECT_TRUE(disjoint_reports(packets, Duration::seconds(10), 0.5, packets.back().ts).empty())
      << "window 0 still open";
  packets.push_back(pkt(11.0, ip("20.0.0.1"), 100));
  const auto reports = disjoint_reports(packets, Duration::seconds(10), 0.5, packets.back().ts);
  ASSERT_EQ(reports.size(), 1u);
  const auto& r = reports[0];
  EXPECT_EQ(r.index, 0u);
  EXPECT_DOUBLE_EQ(r.start.to_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r.end.to_seconds(), 10.0);
  EXPECT_EQ(r.hhhs.total_bytes, 200u);
}

TEST(DisjointWindow, EngineResetsBetweenWindows) {
  const std::vector<PacketRecord> packets = {pkt(1.0, ip("10.0.0.1"), 1000),
                                             pkt(11.0, ip("20.0.0.1"), 10)};
  const auto reports =
      disjoint_reports(packets, Duration::seconds(10), 0.9, TimePoint::from_seconds(20.0));
  ASSERT_EQ(reports.size(), 2u);
  // Window 1 total must not include window 0 traffic.
  EXPECT_EQ(reports[1].hhhs.total_bytes, 10u);
  const auto p1 = reports[1].hhhs.prefixes();
  EXPECT_TRUE(std::binary_search(p1.begin(), p1.end(), pfx("20.0.0.1/32")));
  EXPECT_FALSE(std::binary_search(p1.begin(), p1.end(), pfx("10.0.0.1/32")));
}

TEST(DisjointWindow, EmptyWindowsAreReported) {
  const std::vector<PacketRecord> packets = {
      pkt(1.0, ip("10.0.0.1"), 100),
      pkt(17.0, ip("10.0.0.1"), 100)};  // windows 1, 2 elapse empty
  const auto reports =
      disjoint_reports(packets, Duration::seconds(5), 0.1, TimePoint::from_seconds(20.0));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_FALSE(reports[0].hhhs.empty());
  EXPECT_TRUE(reports[1].hhhs.empty());
  EXPECT_TRUE(reports[2].hhhs.empty());
  EXPECT_FALSE(reports[3].hhhs.empty());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(reports[i].index, i);
}

TEST(DisjointWindow, FinishClosesOnlyElapsedWindows) {
  const std::vector<PacketRecord> packets = {pkt(1.0, ip("10.0.0.1"), 100)};
  EXPECT_TRUE(
      disjoint_reports(packets, Duration::seconds(10), 0.1, TimePoint::from_seconds(9.0))
          .empty())
      << "window not complete at t=9";
  EXPECT_EQ(
      disjoint_reports(packets, Duration::seconds(10), 0.1, TimePoint::from_seconds(10.0))
          .size(),
      1u);
}

TEST(DisjointWindow, CallbackFiresPerWindow) {
  std::vector<PacketRecord> packets;
  for (int t = 0; t < 5; ++t) packets.push_back(pkt(t + 0.5, ip("10.0.0.1"), 10));
  pipeline::PipelineConfig config;
  config.phi = 0.1;
  config.finish_at = TimePoint::from_seconds(5.0);
  config.metrics = false;
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(
                              make_exact_engine(Hierarchy::byte_granularity())),
                          pipeline::make_disjoint_policy(Duration::seconds(1)), config);
  std::vector<std::size_t> seen;
  pipe.add_sink(
      pipeline::make_callback_sink([&](const WindowReport& r) { seen.push_back(r.index); }));
  pipe.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(DisjointWindow, RejectsBadParams) {
  const TimePoint end = TimePoint::from_seconds(1.0);
  EXPECT_THROW(pipeline::make_disjoint_policy(Duration::seconds(0)), std::invalid_argument);
  EXPECT_THROW(disjoint_reports({}, Duration::seconds(1), 0.0, end), std::invalid_argument);
  EXPECT_THROW(disjoint_reports({}, Duration::seconds(1), 1.5, end), std::invalid_argument);
}

// --- Sliding window (the exact sliding summary behind the sliding policy) --

std::vector<WindowReport> sliding_reports(const std::vector<PacketRecord>& packets,
                                          const ExactSlidingParams& params, double phi,
                                          TimePoint end, bool full_windows_only = true) {
  return harness::sliding_pipeline_reports(packets, params, phi, end, 4096, full_windows_only);
}

TEST(SlidingWindow, RequiresWindowMultipleOfStep) {
  const ExactSlidingParams params{.window = Duration::seconds(10), .step = Duration::seconds(3)};
  EXPECT_THROW(ExactSlidingSummary{params}, std::invalid_argument);
  EXPECT_THROW(make_exact_sliding_summary(params), std::invalid_argument);
  EXPECT_THROW(ExactSlidingSummary({.window = Duration::seconds(1), .step = Duration()}),
               std::invalid_argument);
  EXPECT_THROW(
      ExactSlidingSummary({.window = Duration::seconds(1),
                           .step = Duration::seconds(1),
                           .hierarchy = Hierarchy::v6_byte_granularity()}),
      std::invalid_argument);
}

TEST(SlidingWindow, FirstReportAfterFullWindow) {
  std::vector<PacketRecord> packets;
  for (int t = 0; t < 10; ++t) packets.push_back(pkt(t + 0.5, ip("10.0.0.1"), 100));
  const auto reports = sliding_reports(
      packets, {.window = Duration::seconds(5), .step = Duration::seconds(1)}, 0.1,
      TimePoint::from_seconds(10.0));
  // Steps 0..9 close; full windows exist from step index 4 (end t=5).
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_EQ(reports[0].index, 4u);
  EXPECT_DOUBLE_EQ(reports[0].end.to_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(reports[0].start.to_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(reports.back().end.to_seconds(), 10.0);
}

TEST(SlidingWindow, WindowContentSlides) {
  // A heavy source only in [0, 1): present in windows ending at 5, gone at 6+.
  std::vector<PacketRecord> packets = {pkt(0.5, ip("10.0.0.1"), 1000)};
  for (int t = 1; t < 12; ++t) packets.push_back(pkt(t + 0.5, ip("20.0.0.1"), 100));
  const auto reports = sliding_reports(
      packets, {.window = Duration::seconds(5), .step = Duration::seconds(1)}, 0.5,
      TimePoint::from_seconds(12.0));

  const auto& first = reports[0];  // [0, 5)
  EXPECT_EQ(first.hhhs.total_bytes, 1400u);
  const auto p_first = first.hhhs.prefixes();
  EXPECT_TRUE(std::binary_search(p_first.begin(), p_first.end(), pfx("10.0.0.1/32")));

  const auto& second = reports[1];  // [1, 6)
  EXPECT_EQ(second.hhhs.total_bytes, 500u);
  const auto p_second = second.hhhs.prefixes();
  EXPECT_FALSE(std::binary_search(p_second.begin(), p_second.end(), pfx("10.0.0.1/32")))
      << "expired traffic still counted";
}

TEST(SlidingWindow, PartialWindowsReportedWhenConfigured) {
  std::vector<PacketRecord> packets;
  for (int t = 0; t < 3; ++t) packets.push_back(pkt(t + 0.5, ip("10.0.0.1"), 100));
  const auto reports = sliding_reports(
      packets, {.window = Duration::seconds(5), .step = Duration::seconds(1)}, 0.1,
      TimePoint::from_seconds(3.0), /*full_windows_only=*/false);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[2].hhhs.total_bytes, 300u);
}

TEST(SlidingWindow, InsideAStepTheOpenStepReplacesTheOldest) {
  // W = 2 s, step 1 s: at t = 2.5 the window is [1, 3) — step 1 plus the
  // half of step 2 counted so far; step 0 has left.
  ExactSlidingSummary summary({.window = Duration::seconds(2), .step = Duration::seconds(1)});
  const std::vector<PacketRecord> packets = {pkt(0.5, ip("10.0.0.1"), 100),
                                             pkt(1.5, ip("10.0.0.2"), 20),
                                             pkt(2.2, ip("10.0.0.3"), 3)};
  summary.add_batch(packets);
  EXPECT_EQ(summary.watermark(), TimePoint::from_seconds(2.0));
  EXPECT_DOUBLE_EQ(summary.total(TimePoint::from_seconds(2.5)), 23.0);
  EXPECT_DOUBLE_EQ(summary.total(TimePoint::from_seconds(2.0)), 120.0);
  // A query on the boundary closes the step ending there.
  EXPECT_DOUBLE_EQ(summary.total(TimePoint::from_seconds(3.0)), 23.0);
  EXPECT_EQ(summary.watermark(), TimePoint::from_seconds(3.0));
  EXPECT_EQ(summary.counters(TimePoint::from_seconds(3.0)).count(pfx("10.0.0.1/32")), 0u);
}

TEST(SlidingWindow, OneInstanceAnswersAtEveryPhi) {
  // The summary takes phi per query: one instance, several thresholds,
  // each equal to a fresh exact extraction over the window's packets.
  Rng rng(31);
  std::vector<PacketRecord> packets;
  for (double t = rng.exponential(400.0); t < 9.0; t += rng.exponential(400.0)) {
    const Ipv4Address src(static_cast<std::uint32_t>(rng.below(12)) << 24 |
                          static_cast<std::uint32_t>(rng.below(6)) << 8 |
                          static_cast<std::uint32_t>(rng.below(6)));
    packets.push_back(pkt(t, src, 40 + static_cast<std::uint32_t>(rng.below(1400))));
  }
  ExactSlidingSummary summary({.window = Duration::seconds(4), .step = Duration::seconds(1)});
  summary.add_batch(packets);
  // Step 8 is still open: the newest complete window is [4, 8).
  const TimePoint at = TimePoint::from_seconds(8.0);
  ASSERT_EQ(summary.watermark(), at);
  std::vector<PacketRecord> in_window;
  for (const auto& p : packets) {
    if (p.ts >= TimePoint::from_seconds(4.0) && p.ts < at) in_window.push_back(p);
  }
  for (const double phi : {0.01, 0.05, 0.1, 0.3, 1.0}) {
    const auto got = summary.report(at, phi);
    const auto expected = exact_hhh_of(in_window, Hierarchy::byte_granularity(), phi);
    EXPECT_EQ(got.total_bytes, expected.total_bytes) << "phi " << phi;
    EXPECT_EQ(got.threshold_bytes, expected.threshold_bytes) << "phi " << phi;
    EXPECT_EQ(got.items(), expected.items()) << "phi " << phi;
  }
}

// Brute-force cross-check: on random streams every sliding report must
// equal exact HHH extraction over the packets in its window, for both
// address families.
class SlidingVsBruteForce : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SlidingVsBruteForce, ReportsMatchExactWindows) {
  const auto [seed, v6] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto hierarchy = v6 ? Hierarchy::v6_byte_granularity() : Hierarchy::byte_granularity();
  const Duration window = Duration::seconds(4);
  const Duration step = Duration::seconds(1);
  const double phi = 0.1;

  std::vector<PacketRecord> packets;
  double t = 0.0;
  while (t < 30.0) {
    t += rng.exponential(120.0);
    const std::uint64_t hi = rng.below(30) << 56 | rng.below(4) << 48 | rng.below(4) << 40;
    const std::uint32_t v4 = static_cast<std::uint32_t>(hi >> 32) |
                             static_cast<std::uint32_t>(rng.below(8));
    PacketRecord p = pkt(t, Ipv4Address(v4), 1 + static_cast<std::uint32_t>(rng.below(1500)));
    if (v6) p.set_src(IpAddress::v6(hi, v4));
    packets.push_back(p);
  }

  const auto reports = sliding_reports(
      packets, {.window = window, .step = step, .hierarchy = hierarchy}, phi,
      TimePoint::from_seconds(30.0));
  ASSERT_EQ(reports.size(), 27u);
  for (const auto& report : reports) {
    std::vector<PacketRecord> in_window;
    for (const auto& p : packets) {
      if (p.ts >= report.start && p.ts < report.end) in_window.push_back(p);
    }
    const auto expected = exact_hhh_of(in_window, hierarchy, phi);
    EXPECT_EQ(report.hhhs.total_bytes, expected.total_bytes)
        << "window ending " << report.end.to_seconds();
    EXPECT_EQ(report.hhhs.items(), expected.items())
        << "window ending " << report.end.to_seconds();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingVsBruteForce,
                         ::testing::Combine(::testing::Range(1, 6), ::testing::Bool()));

// When the window is a multiple of the step and both tilings share the
// origin, every disjoint window IS a sliding position: the disjoint union
// can never contain a prefix the sliding union lacks.
TEST(WindowModels, DisjointIsSubsetOfSlidingPositions) {
  Rng rng(77);
  std::vector<PacketRecord> packets;
  double t = 0.0;
  while (t < 40.0) {
    t += rng.exponential(200.0);
    const Ipv4Address src(static_cast<std::uint32_t>(rng.below(20)) << 24 |
                          static_cast<std::uint32_t>(rng.below(8)) << 8 |
                          static_cast<std::uint32_t>(rng.below(8)));
    packets.push_back(pkt(t, src, 64 + static_cast<std::uint32_t>(rng.below(1400))));
  }
  const Duration W = Duration::seconds(5);
  const TimePoint end = TimePoint::from_seconds(40.0);

  PrefixUnion disjoint_union;
  for (const auto& r : disjoint_reports(packets, W, 0.05, end)) {
    disjoint_union.add(r.hhhs.prefixes());
  }
  PrefixUnion sliding_union;
  for (const auto& r :
       sliding_reports(packets, {.window = W, .step = Duration::seconds(1)}, 0.05, end)) {
    sliding_union.add(r.hhhs.prefixes());
  }

  const auto missing = prefix_difference(disjoint_union.values(), sliding_union.values());
  EXPECT_TRUE(missing.empty())
      << "disjoint found a prefix sliding positions cannot miss";
}

}  // namespace
}  // namespace hhh
