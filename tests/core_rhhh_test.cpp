#include "core/rhhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "harness/pipeline_axis.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/random.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }

PacketRecord pkt(Ipv4Address src, std::uint32_t bytes) {
  PacketRecord p;
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

std::vector<PacketRecord> skewed_stream(int n, std::uint64_t seed) {
  TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration = Duration::seconds(3600);  // effectively unbounded
  cfg.background_pps = 100000.0;
  cfg.address_space.num_slash8 = 12;
  cfg.address_space.slash16_per_8 = 8;
  cfg.address_space.slash24_per_16 = 6;
  cfg.address_space.hosts_per_24 = 4;
  cfg.bursts_enabled = false;
  SyntheticTraceGenerator gen(cfg);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(out.size()) < n) {
    auto p = gen.next();
    if (!p) break;
    out.push_back(*p);
  }
  return out;
}

TEST(Rhhh, TotalBytesIsExact) {
  RhhhEngine engine({});
  engine.add(pkt(ip("10.0.0.1"), 100));
  engine.add(pkt(ip("10.0.0.2"), 250));
  EXPECT_EQ(engine.total_bytes(), 350u);
}

TEST(Rhhh, HssVariantIsDeterministicallyAccurate) {
  // update_all_levels=true is plain hierarchical Space-Saving: with ample
  // counters and a small key universe its estimates are exact.
  RhhhEngine engine({.counters_per_level = 64, .update_all_levels = true});
  for (int i = 0; i < 100; ++i) engine.add(pkt(ip("10.1.2.3"), 100));
  for (int i = 0; i < 20; ++i) engine.add(pkt(ip("10.1.2.4"), 100));
  EXPECT_DOUBLE_EQ(engine.estimate(pfx("10.1.2.3/32")), 10000.0);
  EXPECT_DOUBLE_EQ(engine.estimate(pfx("10.1.2.0/24")), 12000.0);
  EXPECT_DOUBLE_EQ(engine.estimate(pfx("10.0.0.0/8")), 12000.0);
}

TEST(Rhhh, HssExtractMatchesExactOnEasyStream) {
  const auto packets = skewed_stream(30000, 1);
  RhhhEngine hss({.counters_per_level = 2048, .update_all_levels = true});
  LevelAggregates agg(Hierarchy::byte_granularity());
  for (const auto& p : packets) {
    hss.add(p);
    agg.add(p.src(), p.ip_len);
  }
  const auto approx = hss.extract(0.05);
  const auto exact = extract_hhh_relative(agg, 0.05);
  // With counters >> distinct keys, HSS is exact: identical HHH prefixes.
  EXPECT_EQ(approx.prefixes(), exact.prefixes());
}

TEST(Rhhh, RandomizedEstimatesConvergeToTruth) {
  const auto packets = skewed_stream(400000, 2);
  RhhhEngine rhhh({.counters_per_level = 1024, .seed = 7});
  LevelAggregates agg(Hierarchy::byte_granularity());
  for (const auto& p : packets) {
    rhhh.add(p);
    agg.add(p.src(), p.ip_len);
  }
  // Compare the /8-level estimates of the heaviest prefixes: level
  // sampling sees ~1/5 of packets, so relative error on a >=5% prefix
  // should be modest.
  const auto exact = extract_hhh_relative(agg, 0.05);
  for (const auto& item : exact.items()) {
    if (item.prefix.length() != 8) continue;
    const double truth = static_cast<double>(item.total_bytes);
    EXPECT_NEAR(rhhh.estimate(item.prefix), truth, truth * 0.25)
        << item.prefix.to_string();
  }
}

TEST(Rhhh, RecallOfExactHhhsIsHigh) {
  const auto packets = skewed_stream(400000, 3);
  RhhhEngine rhhh({.counters_per_level = 1024, .seed = 11});
  LevelAggregates agg(Hierarchy::byte_granularity());
  for (const auto& p : packets) {
    rhhh.add(p);
    agg.add(p.src(), p.ip_len);
  }
  const auto exact = extract_hhh_relative(agg, 0.1);
  const auto approx = rhhh.extract(0.1);
  const auto approx_prefixes = approx.prefixes();

  std::size_t recalled = 0;
  for (const auto& p : exact.prefixes()) {
    if (std::binary_search(approx_prefixes.begin(), approx_prefixes.end(), p)) ++recalled;
  }
  ASSERT_FALSE(exact.prefixes().empty());
  EXPECT_GE(static_cast<double>(recalled) / exact.prefixes().size(), 0.6)
      << "RHHH missed too many true HHHs";
}

TEST(Rhhh, ResetClearsState) {
  RhhhEngine engine({});
  for (int i = 0; i < 1000; ++i) engine.add(pkt(ip("10.0.0.1"), 100));
  engine.reset();
  EXPECT_EQ(engine.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(engine.estimate(pfx("10.0.0.1/32")), 0.0);
  EXPECT_TRUE(engine.extract(0.1).empty());
}

TEST(Rhhh, ConditionedDiscountingAppliesInExtract) {
  // All traffic from one host: the host is the only HHH; its ancestors'
  // conditioned estimates are ~0 after discounting.
  RhhhEngine hss({.counters_per_level = 64, .update_all_levels = true});
  for (int i = 0; i < 1000; ++i) hss.add(pkt(ip("10.1.2.3"), 100));
  const auto result = hss.extract(0.2);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.3/32"));
}

TEST(Rhhh, MemoryAndNameReported) {
  RhhhEngine rand_engine({.counters_per_level = 128});
  RhhhEngine hss_engine({.counters_per_level = 128, .update_all_levels = true});
  EXPECT_EQ(rand_engine.name(), "rhhh");
  EXPECT_EQ(hss_engine.name(), "hss");
  EXPECT_GT(rand_engine.memory_bytes(), 0u);
}

TEST(Rhhh, WorksAsDisjointWindowEngine) {
  // Plug the RHHH engine into the disjoint pipeline: windows close and
  // reset without touching ground-truth state.
  auto engine = std::make_unique<RhhhEngine>(
      RhhhEngine::Params{.counters_per_level = 256, .update_all_levels = true});
  std::vector<PacketRecord> packets;
  PacketRecord p = pkt(ip("10.0.0.1"), 1000);
  for (int t = 0; t < 3; ++t) {
    p.ts = TimePoint::from_seconds(t + 0.5);
    packets.push_back(p);
  }
  const auto reports = harness::disjoint_pipeline_reports(
      packets, Duration::seconds(1), 0.5, TimePoint::from_seconds(3.0), std::move(engine));
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.hhhs.total_bytes, 1000u) << "reset between windows failed";
    EXPECT_EQ(r.hhhs.prefixes(), std::vector<PrefixKey>{pfx("10.0.0.1/32")});
  }
}

}  // namespace
}  // namespace hhh
