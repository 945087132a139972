// End-to-end integration: generator -> detectors -> analyses -> metrics,
// plus the pcap path. These are scaled-down versions of the bench
// workloads with *shape* assertions (wide bands, not point values).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "analysis/hidden_analysis.hpp"
#include "analysis/metrics.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "harness/pipeline_axis.hpp"
#include "net/pcap.hpp"
#include "trace/synthetic_trace.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> day_trace(int day, Duration duration, double pps = 1500.0) {
  auto cfg = TraceConfig::caida_like_day(day, duration, pps);
  cfg.address_space.num_slash8 = 16;
  cfg.address_space.slash16_per_8 = 8;
  cfg.address_space.slash24_per_16 = 6;
  cfg.address_space.hosts_per_24 = 4;
  SyntheticTraceGenerator gen(cfg);
  return gen.generate_all();
}

TEST(Integration, HiddenHhhFractionIsSubstantialOnBurstyTraffic) {
  const auto packets = day_trace(0, Duration::seconds(120));
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.step = Duration::seconds(1);
  params.phi = 0.01;
  const auto result = analyze_hidden_hhh(packets, params);

  // Shape assertion (the paper reports 24-34% at 1% threshold over 1-hour
  // traces; on a 2-minute trace we only require the effect to be clearly
  // present and not absurd).
  EXPECT_GT(result.hidden_fraction_of_union(), 0.02)
      << "bursty workload should hide some HHHs from disjoint windows";
  EXPECT_LT(result.hidden_fraction_of_union(), 0.8);
  EXPECT_GT(result.union_size, 10u);
}

TEST(Integration, HigherThresholdHidesFewerOrEqualPrefixes) {
  const auto packets = day_trace(1, Duration::seconds(90));
  HiddenHhhParams params;
  params.window = Duration::seconds(5);
  params.step = Duration::seconds(1);

  params.phi = 0.01;
  const auto low = analyze_hidden_hhh(packets, params);
  params.phi = 0.10;
  const auto high = analyze_hidden_hhh(packets, params);
  // More HHHs exist at the lower threshold; hidden counts should not grow
  // when the threshold rises.
  EXPECT_GE(low.union_size, high.union_size);
  EXPECT_GE(low.hidden.size(), high.hidden.size());
}

TEST(Integration, SimilarityDegradesWithLargerDelta) {
  const auto packets = day_trace(2, Duration::seconds(120));
  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(10);
  params.deltas = {Duration::millis(10), Duration::millis(100), Duration::millis(500)};
  params.phi = 0.05;
  const auto result = analyze_window_similarity(packets, params);
  ASSERT_EQ(result.points.size(), 3u);
  for (const auto& p : result.points) ASSERT_GT(p.pairs, 0u);
  const double mean_small = result.points[0].jaccard.mean();
  const double mean_large = result.points[2].jaccard.mean();
  EXPECT_GE(mean_small, mean_large)
      << "bigger window perturbation must not increase similarity";
}

TEST(Integration, TdbfRecoversHiddenHhhs) {
  // The paper's punchline: the windowless detector recovers a meaningful
  // share of the HHHs that disjoint windows hide.
  const auto packets = day_trace(3, Duration::seconds(120));
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.step = Duration::seconds(1);
  params.phi = 0.01;
  const auto hidden_result = analyze_hidden_hhh(packets, params);
  ASSERT_FALSE(hidden_result.hidden.empty()) << "need hidden HHHs for this test";

  auto tdbf_params = TimeDecayingHhhDetector::for_window(Duration::seconds(10));
  tdbf_params.candidates_per_level = 512;
  TimeDecayingHhhDetector tdbf(tdbf_params);
  PrefixUnion tdbf_union;
  TimePoint next_query = TimePoint::from_seconds(10.0);
  for (const auto& p : packets) {
    tdbf.offer(p);
    if (p.ts >= next_query) {  // query cadence = the sliding step (1 s)
      tdbf_union.add(tdbf.query(p.ts, params.phi).prefixes());
      next_query += Duration::seconds(1);
    }
  }

  std::size_t recovered = 0;
  for (const auto& hidden : hidden_result.hidden) {
    if (tdbf_union.contains(hidden)) ++recovered;
  }
  const double recovery = static_cast<double>(recovered) /
                          static_cast<double>(hidden_result.hidden.size());
  EXPECT_GT(recovery, 0.5) << "windowless detection should reveal most hidden HHHs";
}

TEST(Integration, PcapRoundTripPreservesAnalysis) {
  // Write a synthetic trace as pcap, read it back, and verify the hidden-
  // HHH analysis gives identical results on both copies.
  const auto packets = day_trace(0, Duration::seconds(30), 800.0);
  const auto dir = std::filesystem::temp_directory_path() / "hhh_integration";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "trace.pcap").string();
  {
    PcapWriter writer(path);
    for (const auto& p : packets) writer.write(p);
  }
  std::vector<PacketRecord> from_pcap;
  PcapReader reader(path);
  while (auto p = reader.next()) from_pcap.push_back(*p);
  std::filesystem::remove_all(dir);

  ASSERT_EQ(from_pcap.size(), packets.size());

  HiddenHhhParams params;
  params.window = Duration::seconds(5);
  params.phi = 0.05;
  const auto direct = analyze_hidden_hhh(packets, params);
  const auto via_pcap = analyze_hidden_hhh(from_pcap, params);
  EXPECT_EQ(direct.sliding_prefixes, via_pcap.sliding_prefixes);
  EXPECT_EQ(direct.disjoint_prefixes, via_pcap.disjoint_prefixes);
  EXPECT_EQ(direct.hidden, via_pcap.hidden);
}

TEST(Integration, DdosEpisodeDetectedBySlidingBeforeDisjoint) {
  // A DDoS starting mid-window is reported by the sliding model at the
  // first step where it crosses the threshold; the disjoint model cannot
  // report it before its window closes.
  auto cfg = TraceConfig::caida_like_day(0, Duration::seconds(60), 1000.0);
  DdosEpisode ep;
  ep.start = TimePoint::from_seconds(23.0);  // mid-window for W=10
  ep.duration = Duration::seconds(8);
  ep.pps = 4000.0;
  ep.source_prefix = *Ipv4Prefix::parse("203.0.128.0/24");
  ep.target = Ipv4Address::of(198, 51, 100, 7);
  cfg.episodes.push_back(ep);
  const auto packets = SyntheticTraceGenerator(cfg).generate_all();

  SlidingWindowHhhDetector sliding({.window = Duration::seconds(10),
                                    .step = Duration::seconds(1),
                                    .phi = 0.05});
  for (const auto& p : packets) sliding.offer(p);
  sliding.finish(TimePoint::from_seconds(60.0));
  const auto disjoint = harness::disjoint_pipeline_reports(
      packets, Duration::seconds(10), 0.05, TimePoint::from_seconds(60.0));

  const PrefixKey attack_prefix = *PrefixKey::parse("203.0.128.0/24");
  const auto first_detection = [&](const std::vector<WindowReport>& reports) {
    for (const auto& r : reports) {
      for (const auto& item : r.hhhs.items()) {
        if (attack_prefix.contains(item.prefix) || item.prefix.contains(attack_prefix)) {
          return r.end;
        }
      }
    }
    return TimePoint::from_seconds(1e9);
  };
  const TimePoint t_sliding = first_detection(sliding.reports());
  const TimePoint t_disjoint = first_detection(disjoint);
  ASSERT_LT(t_sliding.to_seconds(), 1e8) << "sliding never saw the attack";
  EXPECT_LE(t_sliding, t_disjoint) << "sliding detection must not be later";
}

TEST(Integration, MetricsAgreeWithHiddenBookkeeping) {
  const auto packets = day_trace(1, Duration::seconds(60));
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.phi = 0.02;
  const auto result = analyze_hidden_hhh(packets, params);
  // Treating sliding as truth and disjoint as detector: the number of
  // false negatives equals the hidden count (sliding \ disjoint).
  const auto pr = compare_exact(result.disjoint_prefixes, result.sliding_prefixes);
  EXPECT_EQ(pr.false_negatives, result.hidden.size());
}

}  // namespace
}  // namespace hhh
