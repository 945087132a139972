#include "core/exact_hhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/prefix_trie.hpp"
#include "harness/trace_builder.hpp"
#include "util/random.hpp"
#include "wire/snapshot.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
PrefixKey pfx(const char* s) { return *PrefixKey::parse(s); }

// --- Hand-verified scenarios ----------------------------------------------

TEST(ExactHhh, SingleHeavyHost) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 1000);
  agg.add(ip("99.0.0.1"), 10);

  const auto result = extract_hhh(agg, 500);
  // The host is an HHH; all its ancestors have conditioned count 10 or 0
  // (only the other host's traffic), so nothing else qualifies.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.3/32"));
  EXPECT_EQ(result.items()[0].total_bytes, 1000u);
  EXPECT_EQ(result.items()[0].conditioned_bytes, 1000u);
}

TEST(ExactHhh, SiblingsBelowThresholdAggregateToParent) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Four /32s with 300 each inside one /24: each below T=500, but the /24
  // conditioned count is 1200 >= T.
  agg.add(ip("10.1.2.1"), 300);
  agg.add(ip("10.1.2.2"), 300);
  agg.add(ip("10.1.2.3"), 300);
  agg.add(ip("10.1.2.4"), 300);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.0/24"));
  EXPECT_EQ(result.items()[0].conditioned_bytes, 1200u);
}

TEST(ExactHhh, HhhChildDiscountsParent) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Heavy host (600) + sibling noise (300): host is HHH; /24 conditioned
  // count is only the noise (300 < 500), so /24 is NOT an HHH even though
  // its total (900) crosses the threshold.
  agg.add(ip("10.1.2.1"), 600);
  agg.add(ip("10.1.2.2"), 300);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.2.1/32"));
}

TEST(ExactHhh, MultiLevelDiscounting) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // 10.1.2.1/32: 600 (HHH)
  // 10.1.2.0/24 residue: 450 x 2 hosts = 900 -> /24 conditioned 900 (HHH)
  // 10.1.0.0/16 extra: 200 + 350 spread in another /24 -> conditioned 550 (HHH)
  agg.add(ip("10.1.2.1"), 600);
  agg.add(ip("10.1.2.2"), 450);
  agg.add(ip("10.1.2.3"), 450);
  agg.add(ip("10.1.9.1"), 200);
  agg.add(ip("10.1.9.2"), 350);

  const auto result = extract_hhh(agg, 500);
  const auto prefixes = result.prefixes();
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.1/32")));
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.2.0/24")));
  EXPECT_TRUE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.9.0/24")));
  // /16 conditioned: 2050 - 600 - 900 - 550 = 0 -> not an HHH.
  EXPECT_FALSE(std::binary_search(prefixes.begin(), prefixes.end(), pfx("10.1.0.0/16")));

  for (const auto& item : result.items()) {
    if (item.prefix == pfx("10.1.2.0/24")) {
      EXPECT_EQ(item.conditioned_bytes, 900u);
      EXPECT_EQ(item.total_bytes, 1500u);
    }
    if (item.prefix == pfx("10.1.9.0/24")) {
      EXPECT_EQ(item.conditioned_bytes, 550u);
    }
  }
}

TEST(ExactHhh, RootCollectsResidue) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  // Scattered light traffic across distinct /8s: every level's conditioned
  // counts stay below T until the root.
  agg.add(ip("10.0.0.1"), 200);
  agg.add(ip("20.0.0.1"), 200);
  agg.add(ip("30.0.0.1"), 200);

  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, PrefixKey::root());
  EXPECT_EQ(result.items()[0].conditioned_bytes, 600u);
}

TEST(ExactHhh, ThresholdBoundaryIsInclusive) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 500);
  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u) << "count == T must qualify";
}

TEST(ExactHhh, ZeroThresholdClampedToOne) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 100);
  const auto result = extract_hhh(agg, 0);
  // T clamps to 1: host qualifies, ancestors are fully discounted.
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.threshold_bytes, 1u);
}

TEST(ExactHhh, RelativeThresholdUsesTotal) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 900);
  agg.add(ip("20.0.0.1"), 100);
  const auto result = extract_hhh_relative(agg, 0.5);
  EXPECT_EQ(result.threshold_bytes, 500u);
  EXPECT_EQ(result.total_bytes, 1000u);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.0.0.1/32"));
}

TEST(ExactHhh, EmptyAggregatesYieldEmptySet) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  const auto result = extract_hhh(agg, 100);
  EXPECT_TRUE(result.empty());
}

TEST(ExactHhh, BitGranularityFindsIntermediatePrefix) {
  LevelAggregates agg(Hierarchy::bit_granularity());
  // Two /32s differing in the last bit: their /31 aggregates them.
  agg.add(ip("10.0.0.2"), 300);
  agg.add(ip("10.0.0.3"), 300);
  const auto result = extract_hhh(agg, 500);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.0.0.2/31"));
}

TEST(ExactHhh, CustomHierarchyRespectsLevels) {
  LevelAggregates agg(Hierarchy({32, 16, 0}));
  agg.add(ip("10.1.2.1"), 300);
  agg.add(ip("10.1.3.1"), 300);
  const auto result = extract_hhh(agg, 500);
  // /24 is not a level here; the mass aggregates at /16 directly.
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.items()[0].prefix, pfx("10.1.0.0/16"));
}

// --- Canonical report order ------------------------------------------------

// Traffic with ten or more HHHs at each of three levels: heavy hosts
// (/32), heavy /24s of many light hosts, and heavy /16s of a wide spray.
std::vector<PacketRecord> layered_traffic(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<PacketRecord> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rng.uniform();
    std::uint32_t src = 0;
    if (r < 0.2) {
      src = 10u << 24 | static_cast<std::uint32_t>(rng.below(12)) << 8 | 1;
    } else if (r < 0.45) {
      src = 20u << 24 | static_cast<std::uint32_t>(rng.below(10)) << 16 |
            static_cast<std::uint32_t>(rng.below(256));
    } else {
      src = 30u << 24 | static_cast<std::uint32_t>(rng.below(16)) << 16 |
            static_cast<std::uint32_t>(rng.below(1u << 16));
    }
    packets.push_back(harness::packet_at(0.0, Ipv4Address(src),
                                         static_cast<std::uint32_t>(40 + rng.below(1460))));
  }
  return packets;
}

void feed(HhhEngine& engine, std::span<const PacketRecord> packets) {
  for (std::size_t i = 0; i < packets.size(); i += 4096) {
    engine.add_batch(packets.subspan(i, std::min<std::size_t>(4096, packets.size() - i)));
  }
}

// Equal counters report equal items in the same order, whatever capacity
// and insertion history the level maps carry: levels leaf to root, and
// ascending prefix within a level.
TEST(ExactHhh, ReportOrderIsCanonicalAcrossTableHistories) {
  const auto packets = layered_traffic(21, 60000);
  const double phi = 0.01;

  ExactEngine engine(Hierarchy::byte_granularity());
  feed(engine, packets);
  const HhhSet grown = engine.extract(phi);
  for (const unsigned len : {32u, 24u, 16u}) {
    EXPECT_GE(grown.at_length(len).size(), 10u) << "/" << len;
  }
  for (std::size_t i = 1; i < grown.size(); ++i) {
    const PrefixKey& prev = grown.items()[i - 1].prefix;
    const PrefixKey& cur = grown.items()[i].prefix;
    EXPECT_TRUE(prev.length() > cur.length() || (prev.length() == cur.length() && prev < cur))
        << prev.to_string() << " before " << cur.to_string();
  }

  // Decode sizes each level map from its entry count, not from history.
  const auto restored = wire::load_engine(wire::save_engine(engine));
  EXPECT_EQ(restored->report(TimePoint(), phi).items(), grown.items());

  // reset() keeps the capacity a wider window grew the maps to.
  engine.reset();
  feed(engine, layered_traffic(22, 400000));
  engine.reset();
  feed(engine, packets);
  EXPECT_EQ(engine.extract(phi).items(), grown.items());
}

// --- Cross-engine equivalence ----------------------------------------------

// The trie engine implements the same definition with a different
// algorithm; on random streams both must produce identical HHH sets and
// identical conditioned counts.
class EngineEquivalence : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EngineEquivalence, TrieMatchesLevelMaps) {
  const auto [seed, phi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto hierarchy = Hierarchy::byte_granularity();

  LevelAggregates agg(hierarchy);
  PrefixTrie trie;
  for (int i = 0; i < 3000; ++i) {
    // Clustered addresses: reuse a small pool of /24s for realistic overlap.
    const std::uint32_t base = static_cast<std::uint32_t>(rng.below(40)) << 24 |
                               static_cast<std::uint32_t>(rng.below(8)) << 16 |
                               static_cast<std::uint32_t>(rng.below(8)) << 8 |
                               static_cast<std::uint32_t>(rng.below(16));
    const std::uint64_t bytes = 1 + rng.below(1500);
    agg.add(Ipv4Address(base), bytes);
    trie.add(Ipv4Address(base), bytes);
  }

  const auto from_maps = extract_hhh_relative(agg, phi);
  const auto from_trie = trie.extract_relative(hierarchy, phi);

  ASSERT_EQ(from_maps.total_bytes, from_trie.total_bytes);
  ASSERT_EQ(from_maps.threshold_bytes, from_trie.threshold_bytes);

  auto a = from_maps.items();
  auto b = from_trie.items();
  const auto by_prefix = [](const HhhItem& x, const HhhItem& y) { return x.prefix < y.prefix; };
  std::sort(a.begin(), a.end(), by_prefix);
  std::sort(b.begin(), b.end(), by_prefix);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].conditioned_bytes, b[i].conditioned_bytes) << a[i].prefix.to_string();
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes) << a[i].prefix.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, EngineEquivalence,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Values(0.01, 0.05, 0.1, 0.3)));

TEST(PrefixTrie, SubtreeBytesAnswersArbitraryPrefixes) {
  PrefixTrie trie;
  trie.add(ip("10.1.2.3"), 100);
  trie.add(ip("10.1.2.9"), 50);
  trie.add(ip("10.1.200.1"), 25);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.0/24")), 150u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.0.0/16")), 175u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.3/32")), 100u);
  EXPECT_EQ(trie.subtree_bytes(pfx("10.1.2.0/27")), 150u);  // non-level length
  EXPECT_EQ(trie.subtree_bytes(pfx("99.0.0.0/8")), 0u);
  EXPECT_EQ(trie.subtree_bytes(PrefixKey::root()), 175u);
}

TEST(PrefixTrie, ClearResets) {
  PrefixTrie trie;
  trie.add(ip("10.0.0.1"), 5);
  trie.clear();
  EXPECT_EQ(trie.total_bytes(), 0u);
  EXPECT_EQ(trie.subtree_bytes(PrefixKey::root()), 0u);
  EXPECT_EQ(trie.node_count(), 1u);
}

TEST(HhhSet, PrefixesSortedUnique) {
  HhhSet set;
  set.add(HhhItem{pfx("10.0.0.0/8"), 10, 10});
  set.add(HhhItem{pfx("9.0.0.0/8"), 10, 10});
  set.add(HhhItem{pfx("10.0.0.0/8"), 10, 10});
  const auto p = set.prefixes();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
}

TEST(PrefixUnion, AccumulatesDistinct) {
  PrefixUnion u;
  u.add({pfx("10.0.0.0/8"), pfx("11.0.0.0/8")});
  u.add(pfx("10.0.0.0/8"));
  u.add({pfx("12.0.0.0/8")});
  EXPECT_EQ(u.size(), 3u);
  EXPECT_TRUE(u.contains(pfx("12.0.0.0/8")));
  EXPECT_FALSE(u.contains(pfx("13.0.0.0/8")));
}

TEST(PrefixDifference, Basics) {
  const std::vector<PrefixKey> a = {pfx("1.0.0.0/8"), pfx("2.0.0.0/8"), pfx("3.0.0.0/8")};
  const std::vector<PrefixKey> b = {pfx("2.0.0.0/8")};
  const auto d = prefix_difference(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], pfx("1.0.0.0/8"));
  EXPECT_EQ(d[1], pfx("3.0.0.0/8"));
}

}  // namespace
}  // namespace hhh
