#include "core/level_aggregates.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }

TEST(LevelAggregates, AddPropagatesToEveryLevel) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 100);
  EXPECT_EQ(agg.count(pfx("10.1.2.3/32")), 100u);
  EXPECT_EQ(agg.count(pfx("10.1.2.0/24")), 100u);
  EXPECT_EQ(agg.count(pfx("10.1.0.0/16")), 100u);
  EXPECT_EQ(agg.count(pfx("10.0.0.0/8")), 100u);
  EXPECT_EQ(agg.count(Ipv4Prefix::root()), 100u);
  EXPECT_EQ(agg.total_bytes(), 100u);
}

TEST(LevelAggregates, SiblingsShareAncestors) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 100);
  agg.add(ip("10.1.2.99"), 50);
  agg.add(ip("10.1.77.1"), 25);
  EXPECT_EQ(agg.count(pfx("10.1.2.0/24")), 150u);
  EXPECT_EQ(agg.count(pfx("10.1.0.0/16")), 175u);
  EXPECT_EQ(agg.distinct_at(0), 3u);
  EXPECT_EQ(agg.distinct_at(1), 2u);
  EXPECT_EQ(agg.distinct_at(2), 1u);
}

TEST(LevelAggregates, RemoveUndoesAdd) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 100);
  agg.add(ip("10.1.2.99"), 50);
  agg.remove(ip("10.1.2.3"), 100);
  EXPECT_EQ(agg.count(pfx("10.1.2.3/32")), 0u);
  EXPECT_EQ(agg.count(pfx("10.1.2.0/24")), 50u);
  EXPECT_EQ(agg.total_bytes(), 50u);
  // Zeroed counters are erased, not kept as zombies.
  EXPECT_EQ(agg.distinct_at(0), 1u);
}

TEST(LevelAggregates, CountOfNonLevelPrefixIsZero) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 100);
  EXPECT_EQ(agg.count(pfx("10.1.2.0/25")), 0u) << "/25 is not a level";
}

TEST(LevelAggregates, ClearResets) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 100);
  agg.clear();
  EXPECT_EQ(agg.total_bytes(), 0u);
  EXPECT_EQ(agg.count(pfx("10.1.2.3/32")), 0u);
  for (std::size_t level = 0; level < 5; ++level) EXPECT_EQ(agg.distinct_at(level), 0u);
}

TEST(LevelAggregates, ForEachVisitsLiveEntries) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.0.0.1"), 10);
  agg.add(ip("11.0.0.1"), 20);
  std::uint64_t sum = 0;
  std::size_t n = 0;
  agg.for_each_at(3, [&](std::uint64_t key, std::uint64_t bytes) {
    sum += bytes;
    const auto p = Ipv4Prefix::from_key(key);
    EXPECT_EQ(p.length(), 8u);
    ++n;
  });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sum, 30u);
}

TEST(LevelAggregates, RandomAddRemoveConsistency) {
  // Add a random multiset, remove a random subset of it, verify counts at
  // all levels equal the surviving multiset's aggregation.
  Rng rng(9);
  LevelAggregates agg(Hierarchy::byte_granularity());
  std::vector<std::pair<Ipv4Address, std::uint64_t>> added;
  for (int i = 0; i < 5000; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.below(1u << 16)) << 16 |
                        static_cast<std::uint32_t>(rng.below(256)) << 8 |
                        static_cast<std::uint32_t>(rng.below(4)));
    const std::uint64_t bytes = 1 + rng.below(999);
    agg.add(a, bytes);
    added.emplace_back(a, bytes);
  }
  // Remove every third entry.
  std::uint64_t expected_total = 0;
  LevelAggregates reference(Hierarchy::byte_granularity());
  for (std::size_t i = 0; i < added.size(); ++i) {
    if (i % 3 == 0) {
      agg.remove(added[i].first, added[i].second);
    } else {
      reference.add(added[i].first, added[i].second);
      expected_total += added[i].second;
    }
  }
  EXPECT_EQ(agg.total_bytes(), expected_total);
  for (std::size_t level = 0; level < 5; ++level) {
    EXPECT_EQ(agg.distinct_at(level), reference.distinct_at(level)) << "level " << level;
    reference.for_each_at(level, [&](std::uint64_t key, std::uint64_t bytes) {
      EXPECT_EQ(agg.count(Ipv4Prefix::from_key(key)), bytes);
    });
  }
}

void expect_same_counters(const LevelAggregates& got, const LevelAggregates& want) {
  EXPECT_EQ(got.total_bytes(), want.total_bytes());
  for (std::size_t level = 0; level < want.hierarchy().levels(); ++level) {
    EXPECT_EQ(got.distinct_at(level), want.distinct_at(level)) << "level " << level;
    want.for_each_at(level, [&](std::uint64_t key, std::uint64_t bytes) {
      EXPECT_EQ(got.count(Ipv4Prefix::from_key(key)), bytes)
          << Ipv4Prefix::from_key(key).to_string();
    });
  }
}

// Merging copies one table's slots into another that uses the same hash,
// so the target sees keys in the source's bucket order. The result must
// not depend on either side's capacity.
TEST(LevelAggregates, MergeAcrossCapacitiesEqualsIngestingTheConcatenation) {
  const Hierarchy h = Hierarchy::byte_granularity();
  Rng rng(11);
  const auto fill = [&](LevelAggregates& agg, int n, std::uint32_t space) {
    std::vector<std::pair<Ipv4Address, std::uint64_t>> added;
    for (int i = 0; i < n; ++i) {
      const Ipv4Address a(static_cast<std::uint32_t>(rng.below(space)) * 2654435761u);
      const std::uint64_t bytes = 1 + rng.below(1499);
      agg.add(a, bytes);
      added.emplace_back(a, bytes);
    }
    return added;
  };
  LevelAggregates a(h);
  LevelAggregates b(h);
  const auto from_a = fill(a, 20000, 30000);  // a and b share keys
  const auto from_b = fill(b, 40000, 60000);
  LevelAggregates concat(h);
  for (const auto& [addr, bytes] : from_a) concat.add(addr, bytes);
  for (const auto& [addr, bytes] : from_b) concat.add(addr, bytes);

  // A fresh 1024-slot target receiving both sources.
  LevelAggregates fresh(h);
  fresh.merge(a);
  fresh.merge(b);
  expect_same_counters(fresh, concat);

  // A target that kept a far larger capacity through clear().
  LevelAggregates wide(h);
  fill(wide, 200000, 1u << 30);
  const std::size_t wide_memory = wide.memory_bytes();
  wide.clear();
  wide.merge(b);
  wide.merge(a);
  EXPECT_EQ(wide.memory_bytes(), wide_memory);
  expect_same_counters(wide, concat);

  // The smaller table merged into the larger one.
  b.merge(a);
  expect_same_counters(b, concat);
}

TEST(LevelAggregates, MemoryGrowsWithDistinctKeys) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  const auto before = agg.memory_bytes();
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    agg.add(Ipv4Address(static_cast<std::uint32_t>(rng.next())), 1);
  }
  EXPECT_GT(agg.memory_bytes(), before);
}

}  // namespace
}  // namespace hhh
