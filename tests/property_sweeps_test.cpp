// Parameterized property sweeps: the theoretical guarantees of every
// sketch and detector, checked across their parameter spaces rather than
// at single configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <map>
#include <tuple>

#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "core/exact_engine.hpp"
#include "core/prefix_trie.hpp"
#include "core/rhhh.hpp"
#include "core/sliding_window.hpp"
#include "sketch/memento.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/tdbf.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/trace_builder.hpp"
#include "trace/zipf.hpp"
#include "util/random.hpp"

namespace hhh {
namespace {

TimePoint at(double seconds) { return TimePoint::from_seconds(seconds); }

// --- Space-Saving: eps = 1/capacity error bound across capacities & skews ---

class SpaceSavingSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SpaceSavingSweep, ErrorBoundHoldsEverywhere) {
  const auto [capacity, skew] = GetParam();
  SpaceSaving ss(static_cast<std::size_t>(capacity));
  Rng rng(0xABC0 + static_cast<std::uint64_t>(capacity));
  ZipfSampler zipf(3000, skew);
  std::map<std::uint64_t, double> truth;
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ss.update(key, 1.0);
    truth[key] += 1.0;
  }
  const double bound = ss.total() / static_cast<double>(capacity);
  for (const auto& entry : ss.entries()) {
    EXPECT_GE(entry.count + 1e-9, truth[entry.key]);
    EXPECT_LE(entry.count - truth[entry.key], bound + 1e-6);
  }
  // Completeness: every key above the bound is tracked.
  for (const auto& [key, count] : truth) {
    if (count > bound) {
      EXPECT_TRUE(ss.tracked(key)) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CapacityBySkew, SpaceSavingSweep,
                         ::testing::Combine(::testing::Values(16, 64, 256),
                                            ::testing::Values(0.6, 1.0, 1.4)));

// --- Decaying counting Bloom filter: overestimate across geometries ---------

class DcbfSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(DcbfSweep, DecayedOverestimateHolds) {
  const auto [log_cells, hashes, half_life_s] = GetParam();
  DecayingCountingBloomFilter dcbf(
      {.cells = 1u << log_cells,
       .hashes = static_cast<std::size_t>(hashes),
       .half_life = Duration::from_seconds(half_life_s)});
  Rng rng(0xDCBF);
  std::map<std::uint64_t, double> decayed;
  const double horizon = 30.0;
  for (int i = 0; i < 20000; ++i) {
    const double t = horizon * static_cast<double>(i) / 20000.0;
    const std::uint64_t key = rng.below(400);
    const double w = 1.0 + static_cast<double>(rng.below(100));
    dcbf.update(key, w, at(t));
    decayed[key] += w * std::exp2((t - horizon) / half_life_s);
  }
  for (const auto& [key, truth] : decayed) {
    EXPECT_GE(dcbf.estimate(key, at(horizon)) + 1e-6, truth)
        << "cells=2^" << log_cells << " hashes=" << hashes << " hl=" << half_life_s;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, DcbfSweep,
                         ::testing::Combine(::testing::Values(12, 14),
                                            ::testing::Values(2, 4),
                                            ::testing::Values(2.0, 8.0)));

// --- Memento window summary: window overestimate across frame counts -------

class MementoSummarySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MementoSummarySweep, WindowOverestimateAcrossGeometry) {
  const auto [frames, counters] = GetParam();
  MementoSummary w({.window = Duration::seconds(6),
                    .frames = static_cast<std::size_t>(frames),
                    .counters = static_cast<std::size_t>(counters)});
  Rng rng(0x3C55);
  ZipfSampler zipf(300, 1.1);
  std::deque<std::tuple<double, std::uint64_t, double>> events;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.exponential(400.0);
    const std::uint64_t key = zipf.sample(rng);
    const double weight = 1.0 + static_cast<double>(rng.below(64));
    w.update(key, weight, at(t));
    events.emplace_back(t, key, weight);
    if (i % 2000 == 1999) {
      std::map<std::uint64_t, double> truth;
      for (const auto& [et, ek, ew] : events) {
        if (et > t - 6.0) truth[ek] += ew;
      }
      for (std::uint64_t probe = 1; probe <= 5; ++probe) {
        EXPECT_GE(w.estimate(probe, at(t)) + 1e-6, truth[probe])
            << "frames=" << frames << " counters=" << counters;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometry, MementoSummarySweep,
                         ::testing::Combine(::testing::Values(3, 6, 12),
                                            ::testing::Values(64, 256)));

// --- Exact extraction invariants across hierarchies -------------------------

class HierarchySweep : public ::testing::TestWithParam<int> {};

TEST_P(HierarchySweep, ConditionedCountsPartitionTraffic) {
  // Under any hierarchy, at T=1 every byte is claimed by exactly one HHH
  // (the most specific level already absorbs everything); and at any T the
  // sum of conditioned counts never exceeds the total.
  const int which = GetParam();
  const Hierarchy hierarchy = which == 0   ? Hierarchy::byte_granularity()
                              : which == 1 ? Hierarchy::bit_granularity()
                                           : Hierarchy({32, 20, 10, 0});
  Rng rng(0x41E0 + static_cast<std::uint64_t>(which));
  LevelAggregates agg(hierarchy);
  for (int i = 0; i < 3000; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.below(50)) << 24 |
                        static_cast<std::uint32_t>(rng.below(16)) << 12 |
                        static_cast<std::uint32_t>(rng.below(64)));
    agg.add(a, 1 + rng.below(1000));
  }

  const auto all = extract_hhh(agg, 1);
  std::uint64_t claimed = 0;
  for (const auto& item : all.items()) claimed += item.conditioned_bytes;
  EXPECT_EQ(claimed, agg.total_bytes()) << "T=1 must partition all bytes";

  for (const std::uint64_t threshold : {agg.total_bytes() / 50, agg.total_bytes() / 10}) {
    const auto set = extract_hhh(agg, threshold);
    std::uint64_t sum = 0;
    for (const auto& item : set.items()) {
      sum += item.conditioned_bytes;
      EXPECT_LE(item.conditioned_bytes, item.total_bytes);
      EXPECT_NE(hierarchy.level_of(item.prefix), Hierarchy::npos);
    }
    EXPECT_LE(sum, agg.total_bytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Hierarchies, HierarchySweep, ::testing::Values(0, 1, 2));

// --- IPv6 generic key layer: random hierarchies, two exact engines ----------

class V6HierarchySweep : public ::testing::TestWithParam<int> {};

TEST_P(V6HierarchySweep, LevelCountersAgreeWithTrieOnRandomStreams) {
  // Two structurally different exact implementations (flat per-level
  // counters vs binary trie) must produce identical HHH sets over random
  // v6 hierarchies and clustered random v6 streams — the same
  // cross-validation the v4 code has had since the seed, now over the
  // 128-bit domain.
  const int which = GetParam();
  Rng rng(0x6666'0000 + static_cast<std::uint64_t>(which));

  // Random strictly-decreasing hierarchy: leaf 128, 2..6 random interior
  // levels, root 0.
  std::vector<unsigned> lengths{128};
  std::set<unsigned> interior;
  const std::size_t interior_count = 2 + rng.below(5);
  while (interior.size() < interior_count) {
    interior.insert(1 + static_cast<unsigned>(rng.below(127)));
  }
  for (auto it = interior.rbegin(); it != interior.rend(); ++it) lengths.push_back(*it);
  lengths.push_back(0);
  const Hierarchy hierarchy(lengths, AddressFamily::kIpv6);

  // Clustered stream: a few hot /32-ish blocks, random structure below.
  LevelAggregatesV6 agg(hierarchy);
  PrefixTrie trie(AddressFamily::kIpv6);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t block = rng.below(6);
    const std::uint64_t mid = rng.below(32);
    const std::uint64_t low = rng.below(64);
    const IpAddress a = IpAddress::v6((0x2001'0000'0000'0000ULL) | (block << 32) |
                                          (mid << 8),
                                      (low << 56) | rng.below(4));
    const std::uint64_t bytes = 1 + rng.below(1200);
    agg.add(a, bytes);
    trie.add(a, bytes);
  }
  ASSERT_EQ(agg.total_bytes(), trie.total_bytes());

  for (const std::uint64_t divisor : {1u, 40u, 12u}) {
    const std::uint64_t threshold = std::max<std::uint64_t>(1, agg.total_bytes() / divisor);
    EXPECT_TRUE(harness::hhh_sets_equal(extract_hhh(agg, threshold),
                                        trie.extract(hierarchy, threshold)))
        << "threshold " << threshold;
  }

  // T=1 partitions every byte, exactly as in the v4 domain.
  const auto all = extract_hhh(agg, 1);
  std::uint64_t claimed = 0;
  for (const auto& item : all.items()) claimed += item.conditioned_bytes;
  EXPECT_EQ(claimed, agg.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(RandomHierarchies, V6HierarchySweep,
                         ::testing::Values(0, 1, 2, 3, 4));

// --- IPv6 exact vs sketch agreement over seeded traces ----------------------

class V6ExactVsSketchSweep : public ::testing::TestWithParam<int> {};

TEST_P(V6ExactVsSketchSweep, HssEstimatesBracketExactCounts) {
  // The deterministic O(H) hierarchical Space-Saving over the v6 domain
  // inherits the per-level Space-Saving theorem: for every prefix heavy
  // enough to be guaranteed tracked (true count > N_level / k),
  //     truth <= estimate <= truth + N_level / k.
  // Checking it against the exact engine's HHH set exercises the whole v6
  // estimate path (key codec, map lookups, level routing) with exact
  // ground truth.
  const std::uint64_t seed = 0x6EED + static_cast<std::uint64_t>(GetParam());
  const auto packets =
      harness::TraceBuilder(seed).compact_space().v6_fraction(1.0).packets(15000);
  ASSERT_FALSE(packets.empty());
  for (const auto& p : packets) ASSERT_EQ(p.family(), AddressFamily::kIpv6);

  auto exact = make_exact_engine(Hierarchy::v6_byte_granularity());
  RhhhV6Engine hss(RhhhParams{.hierarchy = Hierarchy::v6_byte_granularity(),
                              .counters_per_level = 1024,
                              .update_all_levels = true,
                              .seed = seed});
  exact->add_batch(packets);
  hss.add_batch(packets);
  ASSERT_EQ(exact->total_bytes(), hss.total_bytes());

  const auto& agg = dynamic_cast<const ExactV6Engine&>(*exact).aggregates();
  const double slack =
      static_cast<double>(hss.total_bytes()) / 1024.0;  // N_level/k <= N/k
  const auto truth = exact->extract(0.03);
  ASSERT_FALSE(truth.empty());
  for (const auto& item : truth.items()) {
    const double est = hss.estimate(item.prefix);
    const double exact_count = static_cast<double>(agg.count(item.prefix));
    EXPECT_GE(est + 1e-6, exact_count) << item.prefix.to_string();
    EXPECT_LE(est, exact_count + slack + 1e-6) << item.prefix.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, V6ExactVsSketchSweep, ::testing::Values(0, 1, 2));

// --- Mixed-family traces partition exactly ----------------------------------

TEST(MixedFamilyTrace, EnginesIgnoreOtherFamilyPackets) {
  // The HhhEngine contract: a mixed stream fed to one engine counts only
  // the engine's family — identical totals and extraction whether the
  // caller routes per family or fans the whole stream to both engines.
  const auto packets =
      harness::TraceBuilder(0x3118).compact_space().v6_fraction(0.3).packets(12000);
  std::uint64_t v4_bytes = 0;
  std::vector<PacketRecord> v4_only;
  for (const auto& p : packets) {
    if (p.family() == AddressFamily::kIpv4) {
      v4_bytes += p.ip_len;
      v4_only.push_back(p);
    }
  }
  ASSERT_GT(v4_bytes, 0u);
  ASSERT_LT(v4_bytes, harness::byte_sum(packets));

  auto mixed_fed = make_exact_engine(Hierarchy::byte_granularity());
  auto routed = make_exact_engine(Hierarchy::byte_granularity());
  mixed_fed->add_batch(packets);
  routed->add_batch(v4_only);
  EXPECT_EQ(mixed_fed->total_bytes(), v4_bytes);
  EXPECT_TRUE(harness::hhh_sets_equal(routed->extract(0.05), mixed_fed->extract(0.05)));

  RhhhV6Engine rhhh6(RhhhParams{.hierarchy = Hierarchy::v6_byte_granularity(),
                                .counters_per_level = 256,
                                .seed = 7});
  rhhh6.add_batch(packets);
  EXPECT_EQ(rhhh6.total_bytes(), harness::byte_sum(packets) - v4_bytes);
}

TEST(MixedFamilyTrace, FamilySplitEnginesPartitionTheStream) {
  const auto packets =
      harness::TraceBuilder(0x3117).compact_space().v6_fraction(0.4).packets(20000);
  auto v4 = make_exact_engine(Hierarchy::byte_granularity());
  auto v6 = make_exact_engine(Hierarchy::v6_byte_granularity());
  std::uint64_t v4_packets = 0;
  std::uint64_t v6_packets = 0;
  for (const auto& p : packets) {
    if (p.family() == AddressFamily::kIpv4) {
      v4->add(p);
      ++v4_packets;
    } else {
      v6->add(p);
      ++v6_packets;
    }
  }
  // Both families genuinely present at 40% v6...
  EXPECT_GT(v4_packets, packets.size() / 4);
  EXPECT_GT(v6_packets, packets.size() / 4);
  // ...and the two engines partition the byte total exactly.
  EXPECT_EQ(v4->total_bytes() + v6->total_bytes(), harness::byte_sum(packets));
  // Every reported prefix stays inside its engine's family.
  // (Bind the sets: range-for does not extend a temporary through items().)
  const auto v4_set = v4->extract(0.05);
  const auto v6_set = v6->extract(0.05);
  for (const auto& item : v4_set.items()) EXPECT_TRUE(item.prefix.is_v4());
  for (const auto& item : v6_set.items()) EXPECT_FALSE(item.prefix.is_v4());
}

// --- Exact sliding summary equals brute force across (window, step) ---------

class SlidingGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SlidingGeometrySweep, MatchesBruteForceWindows) {
  const auto [window_s, step_divisor, v6] = GetParam();
  const Duration window = Duration::seconds(window_s);
  const Duration step = window / step_divisor;
  const Hierarchy hierarchy =
      v6 ? Hierarchy::v6_byte_granularity() : Hierarchy::byte_granularity();

  Rng rng(0x511D);
  std::vector<PacketRecord> packets;
  double t = 0.0;
  while (t < 25.0) {
    t += rng.exponential(80.0);
    PacketRecord p;
    p.ts = at(t);
    const std::uint32_t top = static_cast<std::uint32_t>(rng.below(20));
    const std::uint32_t low = static_cast<std::uint32_t>(rng.below(16));
    if (v6) {
      p.set_src(IpAddress::v6(std::uint64_t{0x2001} << 48 | std::uint64_t{top} << 32, low));
    } else {
      p.set_src(Ipv4Address(top << 24 | low));
    }
    p.ip_len = 1 + static_cast<std::uint32_t>(rng.below(1500));
    packets.push_back(p);
  }

  const auto reports = harness::sliding_pipeline_reports(
      packets, {.window = window, .step = step, .hierarchy = hierarchy}, 0.08, at(25.0));
  ASSERT_FALSE(reports.empty());
  for (const auto& report : reports) {
    std::vector<PacketRecord> in_window;
    for (const auto& p : packets) {
      if (p.ts >= report.start && p.ts < report.end) in_window.push_back(p);
    }
    const auto expected = exact_hhh_of(in_window, hierarchy, 0.08);
    EXPECT_EQ(report.hhhs.prefixes(), expected.prefixes())
        << (v6 ? "v6" : "v4") << " W=" << window_s << "s step=W/" << step_divisor << " end "
        << report.end.to_seconds();
  }
}

INSTANTIATE_TEST_SUITE_P(Geometry, SlidingGeometrySweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(1, 2, 4), ::testing::Bool()));

}  // namespace
}  // namespace hhh
