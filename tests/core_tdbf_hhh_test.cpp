#include "core/tdbf_hhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "trace/synthetic_trace.hpp"

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

TimePoint at(double t) { return TimePoint::from_seconds(t); }

TEST(TdbfHhh, ForWindowSetsEquivalentHalfLife) {
  const auto params = TimeDecayingHhhDetector::for_window(Duration::seconds(10));
  TimeDecayingHhhDetector det(params);
  EXPECT_NEAR(det.half_life_seconds(), 6.931, 0.01);
}

TEST(TdbfHhh, SteadyHeavySourceIsDetectedAtAnyInstant) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  // 70% of bytes from one host, 30% scattered.
  for (int i = 0; i < 4000; ++i) {
    const double t = i * 0.01;
    det.add(pkt(t, ip("10.1.2.3"), 700));
    det.add(pkt(t, ip(i % 2 ? "50.0.0.1" : "60.0.0.1"), 300));
  }
  // Query at several arbitrary instants — windowless detection.
  for (const double q : {20.0, 25.7, 33.333, 39.99}) {
    const auto result = det.report(at(q), 0.3);
    const auto prefixes = result.prefixes();
    EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.3/32")))
        << "query at t=" << q;
  }
}

TEST(TdbfHhh, FinishedBurstFadesWithoutReset) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(5)));
  // Burst dominates until t=10, then only background continues.
  for (int i = 0; i < 1000; ++i) det.add(pkt(i * 0.01, ip("66.6.6.6"), 1000));
  for (int i = 0; i < 3000; ++i) det.add(pkt(10.0 + i * 0.01, ip("50.0.0.1"), 200));

  const auto during = det.report(at(10.0), 0.3).prefixes();
  EXPECT_TRUE(std::binary_search(during.begin(), during.end(), pfx("66.6.6.6/32")));

  const auto after = det.report(at(40.0), 0.3).prefixes();
  EXPECT_FALSE(std::binary_search(after.begin(), after.end(), pfx("66.6.6.6/32")))
      << "decayed burst should no longer dominate";
  EXPECT_TRUE(std::binary_search(after.begin(), after.end(), pfx("50.0.0.1/32")));
}

TEST(TdbfHhh, HierarchicalAggregationAcrossLevels) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  // Four siblings in one /24, each ~12% of traffic: none is an HHH alone
  // at phi=0.3, but the /24 aggregates to ~48%.
  for (int i = 0; i < 3000; ++i) {
    const double t = i * 0.01;
    det.add(pkt(t, ip("10.1.2.1"), 120));
    det.add(pkt(t, ip("10.1.2.2"), 120));
    det.add(pkt(t, ip("10.1.2.3"), 120));
    det.add(pkt(t, ip("10.1.2.4"), 120));
    det.add(pkt(t, ip("99.0.0.1"), 520));
  }
  const auto result = det.report(at(30.0), 0.3);
  const auto prefixes = result.prefixes();
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.0/24")));
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("99.0.0.1/32")));
  EXPECT_FALSE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.1/32")));
}

TEST(TdbfHhh, DecayedTotalTracksRecentRate) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  // Steady 100 kB/s for 60 s: decayed total ~ rate * tau_eff = 100k * 10.
  for (int i = 0; i < 60000; ++i) det.add(pkt(i * 0.001, ip("10.0.0.1"), 100));
  EXPECT_NEAR(det.total(at(60.0)), 1e6, 1e6 * 0.05);
}

TEST(TdbfHhh, AgreesWithExactSlidingWindowOnStationaryTraffic) {
  // On stationary traffic the decayed HHH set at tau_eff=W should closely
  // match the exact W-window HHH set.
  TraceConfig cfg;
  cfg.seed = 4;
  cfg.duration = Duration::seconds(60);
  cfg.background_pps = 2000.0;
  cfg.bursts_enabled = false;
  cfg.modulation.amplitude = 0.0;
  cfg.address_space.num_slash8 = 8;
  cfg.address_space.slash16_per_8 = 6;
  cfg.address_space.slash24_per_16 = 4;
  cfg.address_space.hosts_per_24 = 4;
  SyntheticTraceGenerator gen(cfg);
  const auto packets = gen.generate_all();

  auto params = TimeDecayingHhhDetector::for_window(Duration::seconds(10));
  params.cells_per_level = 1 << 16;
  TimeDecayingHhhDetector det(params);
  LevelAggregates window_agg(Hierarchy::byte_granularity());
  std::vector<const PacketRecord*> window_packets;

  for (const auto& p : packets) {
    det.add(p);
    window_agg.add(p.src(), p.ip_len);
    window_packets.push_back(&p);
  }
  // Exact counts over the trailing 10 s window at t = 60.
  LevelAggregates trailing(Hierarchy::byte_granularity());
  for (const auto* p : window_packets) {
    if (p->ts >= at(50.0)) trailing.add(p->src(), p->ip_len);
  }
  const auto exact = extract_hhh_relative(trailing, 0.05);
  const auto decayed = det.report(at(60.0), 0.05);

  // Recall: the decayed view must find the great majority of the exact
  // window's HHHs (boundary items may differ: the views are not identical).
  const auto decayed_prefixes = decayed.prefixes();
  std::size_t recalled = 0;
  for (const auto& p : exact.prefixes()) {
    if (std::binary_search(decayed_prefixes.begin(), decayed_prefixes.end(), p)) ++recalled;
  }
  ASSERT_FALSE(exact.prefixes().empty());
  EXPECT_GE(static_cast<double>(recalled) / exact.prefixes().size(), 0.7);
}

TEST(TdbfHhh, ThresholdRelativeToDecayedTotal) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  for (int i = 0; i < 1000; ++i) det.add(pkt(i * 0.01, ip("10.0.0.1"), 100));
  const auto result = det.report(at(10.0), 0.1);
  EXPECT_GT(result.threshold_bytes, 0u);
  EXPECT_NEAR(static_cast<double>(result.threshold_bytes),
              0.1 * static_cast<double>(result.total_bytes),
              static_cast<double>(result.total_bytes) * 0.02 + 2.0);
}

TEST(TdbfHhh, MemoryAccounted) {
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  EXPECT_GT(det.memory_bytes(), 0u);
}

TEST(TdbfHhh, CatchesBoundaryStraddlingBurstThatDisjointMisses) {
  // The paper's §3 motivation, end to end: a burst across a disjoint
  // boundary that per-window detection halves is visible to the decayed
  // detector at its peak instant.
  auto params = TimeDecayingHhhDetector::for_window(Duration::seconds(10));
  TimeDecayingHhhDetector det(params);
  // Background: 10 kB/s continuous.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 2000; ++i) packets.push_back(pkt(i * 0.01, ip("50.0.0.1"), 100));
  // Burst: 40 kB spread over [8, 12), i.e. 20 kB on each side of t=10.
  for (int i = 0; i < 400; ++i) {
    packets.push_back(pkt(8.0 + i * 0.01, ip("66.6.6.6"), 100));
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.ts < b.ts; });
  for (const auto& p : packets) det.add(p);

  // At t=12 the decayed mass of the burst is near its 40 kB peak while the
  // decayed total is ~ background*tau + burst: phi=0.25 is crossed.
  const auto result = det.report(at(12.0), 0.25);
  const auto prefixes = result.prefixes();
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("66.6.6.6/32")));
}

}  // namespace
}  // namespace hhh
