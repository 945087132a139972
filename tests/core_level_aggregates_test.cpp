#include "core/level_aggregates.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "core/exact_hhh.hpp"
#include "core/prefix_trie.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
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

TEST(LevelAggregates, ReleasedRunsSubtractLikeTheirPackets) {
  // A sliding window's step: merged into the window, released as a run,
  // and later subtracted again, leaving exactly the other steps' counters.
  const auto packets = harness::TraceBuilder(0x5EB).compact_space().packets(3000);
  const auto half = std::span<const PacketRecord>(packets).first(1500);
  const auto rest = std::span<const PacketRecord>(packets).subspan(1500);
  LevelAggregates step(Hierarchy::byte_granularity());
  LevelAggregates other(Hierarchy::byte_granularity());
  step.add_batch(half);
  other.add_batch(rest);
  LevelAggregates window(Hierarchy::byte_granularity());
  window.merge(step);
  window.merge(other);
  const LevelAggregates::Run leaves = step.release_run();
  EXPECT_EQ(step.total_bytes(), 0u);
  EXPECT_EQ(step.leaves(), 0u);
  LevelAggregates::Run scratch;
  LevelAggregates whole(Hierarchy::byte_granularity());
  whole.add_batch(packets);
  EXPECT_TRUE(harness::hhh_sets_equal(extract_hhh_relative(window, 0.02),
                                      extract_hhh_relative(whole, 0.02)));
  EXPECT_EQ(window.total_bytes(), whole.total_bytes());

  window.subtract_run(leaves);
  EXPECT_EQ(window.total_bytes(), other.total_bytes());
  EXPECT_EQ(window.leaves(), other.leaves()) << "zeroed counters must be erased";
  EXPECT_TRUE(harness::hhh_sets_equal(extract_hhh_relative(window, 0.02),
                                      extract_hhh_relative(other, 0.02)));
  window.subtract_run(other.sorted_leaves(scratch));
  EXPECT_EQ(window.total_bytes(), 0u);
  EXPECT_EQ(window.leaves(), 0u);
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
  EXPECT_EQ(harness::level_counters(agg), harness::level_counters(reference));
}

void expect_same_counters(const LevelAggregates& got, const LevelAggregates& want) {
  EXPECT_EQ(got.total_bytes(), want.total_bytes());
  EXPECT_EQ(harness::level_counters(got), harness::level_counters(want));
}

// Merging sorts a map-authoritative side into a run and merges the runs.
// The result must not depend on either side's capacity or view.
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

  // A fresh target receiving both sources.
  LevelAggregates fresh(h);
  fresh.merge(a);
  fresh.merge(b);
  expect_same_counters(fresh, concat);

  // A target that kept a far larger capacity through clear(). The merge
  // builds the sorted run and leaves the kept table alone: the footprint
  // grows by that one run, whose vector growth at most doubles it.
  LevelAggregates wide(h);
  fill(wide, 200000, 1u << 30);
  const std::size_t wide_memory = wide.memory_bytes();
  wide.clear();
  wide.merge(b);
  wide.merge(a);
  EXPECT_LE(wide.memory_bytes(),
            wide_memory + 2 * wide.leaves() * sizeof(LevelAggregates::Entry));
  expect_same_counters(wide, concat);

  // The smaller table merged into the larger one.
  b.merge(a);
  expect_same_counters(b, concat);
}

// Only the leaf level is stored; every upper level is derived. Check the
// derived levels against the layout they replace, one std::map per level
// updated at every level for every packet, over streams that mix add(),
// add_batch(), zero-length packets and remove(). Extraction must match the
// independent PrefixTrie over the surviving traffic.
template <typename D>
void check_against_per_level_maps(const Hierarchy& hierarchy, std::uint64_t seed) {
  Rng rng(seed);
  BasicLevelAggregates<D> agg(hierarchy);
  std::vector<std::map<PrefixKey, std::uint64_t>> reference(hierarchy.levels());
  std::map<IpAddress, std::uint64_t> surviving;
  std::vector<std::pair<IpAddress, std::uint64_t>> added;
  const auto update = [&](IpAddress src, std::uint64_t bytes, bool add) {
    for (std::size_t level = 0; level < hierarchy.levels(); ++level) {
      auto& count = reference[level][PrefixKey(src, hierarchy.length_at(level))];
      count = add ? count + bytes : count - bytes;
    }
    surviving[src] = add ? surviving[src] + bytes : surviving[src] - bytes;
  };
  const auto random_source = [&] {
    // A small hierarchical space, so prefixes share ancestors at every level.
    const std::uint64_t hi = rng.below(3) << 60 | rng.below(4) << 44 | rng.below(6) << 36;
    if (D::kFamily == AddressFamily::kIpv4) {
      return IpAddress(Ipv4Address(static_cast<std::uint32_t>(hi >> 32)));
    }
    return IpAddress::v6(hi | rng.below(3) << 8, rng.below(5));
  };
  for (int op = 1; op <= 6000; ++op) {
    if (!added.empty() && rng.below(4) == 0) {
      const std::size_t i = rng.below(added.size());
      const auto [src, bytes] = added[i];
      added[i] = added.back();
      added.pop_back();
      agg.remove(src, bytes);
      update(src, bytes, false);
    } else {
      const IpAddress src = random_source();
      const std::uint32_t bytes =
          rng.below(5) == 0 ? 0 : 1 + static_cast<std::uint32_t>(rng.below(1499));
      if (rng.below(2) == 0) {
        agg.add(src, bytes);
      } else {
        PacketRecord packet = harness::packet_at(0.0, Ipv4Address(0), bytes);
        packet.set_src(src);
        agg.add_batch(std::span<const PacketRecord>(&packet, 1));
      }
      added.emplace_back(src, bytes);
      update(src, bytes, true);
    }
    if (op % 1500 != 0) continue;

    std::vector<std::map<PrefixKey, std::uint64_t>> want(hierarchy.levels());
    for (std::size_t level = 0; level < want.size(); ++level) {
      for (const auto& [prefix, bytes] : reference[level]) {
        if (bytes != 0) want[level].emplace(prefix, bytes);  // no counter is ever zero
      }
    }
    ASSERT_EQ(harness::level_counters(agg), want) << "op " << op;
    PrefixTrie trie(D::kFamily);
    for (const auto& [src, bytes] : surviving) {
      if (bytes != 0) trie.add(src, bytes);
    }
    ASSERT_EQ(agg.total_bytes(), trie.total_bytes());
    for (const double phi : {0.01, 0.05, 0.2}) {
      EXPECT_TRUE(harness::hhh_sets_equal(trie.extract_relative(hierarchy, phi),
                                          extract_hhh_relative(agg, phi)))
          << "op " << op << " phi " << phi;
    }
  }
}

TEST(LevelAggregates, DerivedLevelsEqualPerLevelMapsV4) {
  check_against_per_level_maps<V4Domain>(Hierarchy::byte_granularity(), 21);
  check_against_per_level_maps<V4Domain>(Hierarchy::bit_granularity(), 22);
}

TEST(LevelAggregates, DerivedLevelsEqualPerLevelMapsV6) {
  check_against_per_level_maps<V6Domain>(Hierarchy::v6_byte_granularity(), 23);
  check_against_per_level_maps<V6Domain>(Hierarchy::v6_nibble_granularity(), 24);
}

TEST(LevelAggregates, ZeroBytesCountNothing) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add(ip("10.1.2.3"), 0);
  const PacketRecord empty = harness::packet_at(0.0, ip("10.1.2.4"), 0);
  agg.add_batch(std::span<const PacketRecord>(&empty, 1));
  EXPECT_EQ(agg.distinct_at(0), 0u);
  agg.remove(ip("10.1.2.3"), 0);  // nothing to remove, nothing removed
  agg.add(ip("10.1.2.3"), 7);
  agg.remove(ip("10.1.2.3"), 0);
  EXPECT_EQ(agg.count(pfx("10.1.2.3/32")), 7u);
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
