// Merge semantics (HhhEngine::merge_from) and sharded ingestion.
//
// The contracts under test, per engine family:
//  * exact — merge(A, B) is byte-identical to one engine ingesting A++B
//    (counter addition commutes): golden-equal HHH sets, equal per-level
//    counters;
//  * rhhh / hss — merged summaries stay within the summed error bounds
//    (mergeable-summaries): verified against the exact golden and, for
//    HSS under capacity, bit-exact against the single-engine run;
//  * memento — frame-aligned merge of sliding-window summaries;
//  * ShardedHhhEngine — N worker threads over hash-partitioned streams
//    must reproduce single-thread results: exactly for exact replicas,
//    within golden-comparator bounds for RHHH, across seeds.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>

#include "core/exact_engine.hpp"
#include "core/rhhh.hpp"
#include "core/sharded_engine.hpp"
#include "core/univmon_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"
#include "sketch/memento.hpp"
#include "sketch/space_saving.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> stream_for(std::uint64_t seed, std::size_t n) {
  return harness::TraceBuilder(seed).compact_space().packets(n);
}

// Split a stream into two alternating halves (worst case for merges:
// every prefix has mass on both sides).
void split_stream(const std::vector<PacketRecord>& packets,
                  std::vector<PacketRecord>& a, std::vector<PacketRecord>& b) {
  for (std::size_t i = 0; i < packets.size(); ++i) {
    (i % 2 == 0 ? a : b).push_back(packets[i]);
  }
}

// --- exact merges ------------------------------------------------------------

TEST(ExactMerge, MergeEqualsConcatenatedIngest) {
  harness::for_each_seed(0x3E46'0001, 4, [](std::uint64_t seed) {
    const auto packets = stream_for(seed, 20000);
    std::vector<PacketRecord> a, b;
    split_stream(packets, a, b);

    ExactEngine whole(Hierarchy::byte_granularity());
    for (const auto& p : packets) whole.add(p);

    ExactEngine left(Hierarchy::byte_granularity());
    ExactEngine right(Hierarchy::byte_granularity());
    left.add_batch(a);
    right.add_batch(b);
    left.merge_from(right);

    EXPECT_EQ(left.total_bytes(), whole.total_bytes());
    EXPECT_TRUE(harness::hhh_sets_equal(whole.extract(0.03), left.extract(0.03)));
    // Byte-identical per-level counters, not just equal HHH output.
    EXPECT_EQ(harness::level_counters(left.aggregates()),
              harness::level_counters(whole.aggregates()));
  });
}

TEST(ExactMerge, MergeWithEmptySidesIsIdentity) {
  const auto packets = stream_for(0x3E46'0002, 5000);
  ExactEngine loaded(Hierarchy::byte_granularity());
  loaded.add_batch(packets);
  const auto before = loaded.extract(0.02);

  ExactEngine empty(Hierarchy::byte_granularity());
  loaded.merge_from(empty);  // merging in nothing changes nothing
  EXPECT_TRUE(harness::hhh_sets_equal(before, loaded.extract(0.02)));

  ExactEngine target(Hierarchy::byte_granularity());
  target.merge_from(loaded);  // merging into empty copies the state
  EXPECT_TRUE(harness::hhh_sets_equal(before, target.extract(0.02)));
}

TEST(ExactMerge, HierarchyMismatchThrows) {
  ExactEngine byte_level(Hierarchy::byte_granularity());
  ExactEngine bit_level(Hierarchy::bit_granularity());
  EXPECT_THROW(byte_level.merge_from(bit_level), std::invalid_argument);
}

TEST(MergeCapability, UnsupportedEnginesThrowAndReportNotMergeable) {
  UnivmonHhhEngine univmon({.sketch_width = 512, .top_k = 32});
  ExactEngine exact(Hierarchy::byte_granularity());
  EXPECT_FALSE(univmon.mergeable());
  EXPECT_THROW(univmon.merge_from(exact), std::logic_error);
  // Mergeable engines still reject foreign types.
  EXPECT_TRUE(exact.mergeable());
  EXPECT_THROW(exact.merge_from(univmon), std::invalid_argument);
}

// --- Space-Saving / RHHH / HSS merges ---------------------------------------

TEST(SpaceSavingMerge, ExactWhenUnderCapacity) {
  // No evictions on either side: the merge must be plain addition.
  SpaceSaving a(64), b(64);
  a.update(1, 10.0);
  a.update(2, 5.0);
  b.update(2, 7.0);
  b.update(3, 3.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.estimate(1), 10.0);
  EXPECT_DOUBLE_EQ(a.estimate(2), 12.0);
  EXPECT_DOUBLE_EQ(a.estimate(3), 3.0);
  EXPECT_DOUBLE_EQ(a.total(), 25.0);
}

TEST(SpaceSavingMerge, OverestimateBoundedBySummedErrors) {
  // Against brute-force truth: every merged estimate must satisfy
  //   truth <= estimate <= truth + N1/k + N2/k.
  harness::for_each_seed(0x55AE'0001, 4, [](std::uint64_t seed) {
    const auto packets = stream_for(seed, 12000);
    std::vector<PacketRecord> sa, sb;
    split_stream(packets, sa, sb);

    const std::size_t k = 48;
    SpaceSaving a(k), b(k);
    FlatHashMap<std::uint64_t, double> truth(1024);
    double n1 = 0.0, n2 = 0.0;
    for (const auto& p : sa) {
      a.update(p.src().v4().bits(), p.ip_len);
      truth[p.src().v4().bits()] += p.ip_len;
      n1 += p.ip_len;
    }
    for (const auto& p : sb) {
      b.update(p.src().v4().bits(), p.ip_len);
      truth[p.src().v4().bits()] += p.ip_len;
      n2 += p.ip_len;
    }
    a.merge_from(b);
    EXPECT_DOUBLE_EQ(a.total(), n1 + n2);
    EXPECT_LE(a.size(), k);
    const double bound = n1 / static_cast<double>(k) + n2 / static_cast<double>(k);
    for (const auto& entry : a.entries()) {
      const double* t = truth.find(entry.key);
      const double true_count = t ? *t : 0.0;
      EXPECT_GE(entry.count + 1e-6, true_count) << "merged count must overestimate";
      EXPECT_LE(entry.count, true_count + bound + 1e-6) << "summed error bound violated";
    }
  });
}

TEST(RhhhMerge, HeavyPrefixesSurviveTheMerge) {
  // Merged RHHH vs the exact golden: at a coarse threshold every exact
  // HHH must appear in the merged engine's report (bounded divergence).
  harness::for_each_seed(0x44A4'0001, 3, [](std::uint64_t seed) {
    const auto packets = stream_for(seed, 40000);
    std::vector<PacketRecord> a, b;
    split_stream(packets, a, b);

    RhhhEngine left({.counters_per_level = 512, .seed = seed});
    RhhhEngine right({.counters_per_level = 512, .seed = seed ^ 0xF00D});
    left.add_batch(a);
    right.add_batch(b);
    left.merge_from(right);
    EXPECT_EQ(left.total_bytes(), harness::byte_sum(packets));

    ExactEngine golden(Hierarchy::byte_granularity());
    golden.add_batch(packets);
    EXPECT_TRUE(harness::hhh_set_covers(left.extract(0.1), golden.extract(0.2).prefixes()));
  });
}

TEST(HssMerge, ExactUnderCapacityMatchesSingleEngine) {
  // With capacity above the distinct-key count nothing is ever evicted,
  // so HSS merge must be bit-exact against one engine fed both halves.
  const auto packets = stream_for(0x4455'0001, 16000);
  std::vector<PacketRecord> a, b;
  split_stream(packets, a, b);

  RhhhEngine::Params params{.counters_per_level = 4096, .update_all_levels = true, .seed = 9};
  RhhhEngine whole(params);
  whole.add_batch(packets);

  RhhhEngine left(params), right(params);
  left.add_batch(a);
  right.add_batch(b);
  left.merge_from(right);
  EXPECT_TRUE(harness::hhh_sets_equal(whole.extract(0.02), left.extract(0.02)));
}

TEST(RhhhMerge, ModeMismatchThrows) {
  RhhhEngine sampled({.counters_per_level = 64, .seed = 1});
  RhhhEngine hss({.counters_per_level = 64, .update_all_levels = true, .seed = 1});
  EXPECT_THROW(sampled.merge_from(hss), std::invalid_argument);
}

// --- Memento merges -----------------------------------------------------------

TEST(MementoMerge, SplitSummariesMatchSingleUnderCapacity) {
  // Two window summaries fed disjoint halves of one clock, merged, must
  // agree with one summary fed everything (capacity high enough that no
  // slot is ever evicted -> the frame-aligned merge is plain addition).
  const auto packets = stream_for(0x3C55'0001, 12000);
  std::vector<PacketRecord> a, b;
  split_stream(packets, a, b);

  const MementoSummary::Params params{.window = Duration::seconds(5),
                                      .frames = 5,
                                      .counters = 8192};
  MementoSummary whole(params), left(params), right(params);
  const auto feed = [](MementoSummary& s, const std::vector<PacketRecord>& stream) {
    for (const auto& p : stream) s.update(p.src_hi(), p.ip_len, p.ts);
  };
  feed(whole, packets);
  feed(left, a);
  feed(right, b);
  left.merge_from(right);

  const TimePoint now = packets.back().ts;
  EXPECT_EQ(left.window_total(now), whole.window_total(now));
  EXPECT_EQ(left.size(), whole.size());
  for (const auto& p : packets) {
    EXPECT_EQ(left.estimate(p.src_hi(), now), whole.estimate(p.src_hi(), now));
  }
}

TEST(MementoMerge, ParamsMismatchThrows) {
  MementoSummary a({.frames = 5});
  MementoSummary b({.frames = 10});
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

// --- sharded engine ----------------------------------------------------------

TEST(ShardedEngine, ExactShardingIsByteIdenticalToSingleThread) {
  // The headline guarantee: hash-partitioned parallel ingestion with exact
  // replicas extracts the identical HHH set, at every shard count, across
  // seeds, for batched and per-packet feeding alike.
  harness::for_each_seed(0x54A2'0001, 3, [](std::uint64_t seed) {
    const auto packets = stream_for(seed, 30000);
    ExactEngine single(Hierarchy::byte_granularity());
    single.add_batch(packets);
    const auto golden = single.extract(0.02);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      auto sharded = make_sharded_exact_engine(Hierarchy::byte_granularity(), shards);
      const std::span<const PacketRecord> all(packets);
      for (std::size_t i = 0; i < all.size(); i += 2048) {
        sharded->add_batch(all.subspan(i, std::min<std::size_t>(2048, all.size() - i)));
      }
      EXPECT_EQ(sharded->total_bytes(), single.total_bytes()) << "shards=" << shards;
      EXPECT_TRUE(harness::hhh_sets_equal(golden, sharded->extract(0.02)))
          << "shards=" << shards;
    }
  });
}

TEST(ShardedEngine, PerPacketAddMatchesBatchedDispatch) {
  const auto packets = stream_for(0x54A2'0002, 15000);
  auto via_add = make_sharded_exact_engine(Hierarchy::byte_granularity(), 4);
  for (const auto& p : packets) via_add->add(p);
  auto via_batch = make_sharded_exact_engine(Hierarchy::byte_granularity(), 4);
  via_batch->add_batch(packets);
  EXPECT_EQ(via_add->total_bytes(), via_batch->total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(via_batch->extract(0.02), via_add->extract(0.02)));
}

TEST(ShardedEngine, RhhhShardingStaysWithinGoldenBounds) {
  // Approximate replicas: the merged result must still surface every
  // coarse exact HHH (summed error bounds), with pinned per-shard seeds.
  harness::for_each_seed(0x54A2'0003, 3, [](std::uint64_t seed) {
    const auto packets = stream_for(seed, 40000);
    ExactEngine golden_engine(Hierarchy::byte_granularity());
    golden_engine.add_batch(packets);

    auto sharded = make_sharded_rhhh_engine(Hierarchy::byte_granularity(), 4,
                                            /*counters_per_level=*/512, /*base_seed=*/seed);
    sharded->add_batch(packets);
    EXPECT_EQ(sharded->total_bytes(), harness::byte_sum(packets));
    EXPECT_TRUE(harness::hhh_set_covers(sharded->extract(0.1),
                                        golden_engine.extract(0.2).prefixes()));
  });
}

TEST(ShardedEngine, DeterministicAcrossRuns) {
  // Fixed stream + pinned seeds => identical reports regardless of thread
  // scheduling (partitioning is a fixed hash; rings are FIFO).
  const auto packets = stream_for(0x54A2'0004, 25000);
  auto run = [&] {
    auto engine = make_sharded_rhhh_engine(Hierarchy::byte_granularity(), 4, 512, 7);
    engine->add_batch(packets);
    return engine->extract(0.05);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_TRUE(harness::hhh_sets_equal(first, second));
}

TEST(ShardedEngine, ResetClearsAllShards) {
  auto engine = make_sharded_exact_engine(Hierarchy::byte_granularity(), 4);
  engine->add_batch(stream_for(0x54A2'0005, 10000));
  EXPECT_GT(engine->total_bytes(), 0u);
  engine->reset();
  EXPECT_EQ(engine->total_bytes(), 0u);
  EXPECT_TRUE(engine->extract(0.01).empty());
}

TEST(ShardedEngine, RejectsNonMergeableReplicasAndZeroShards) {
  ShardedHhhEngine::Params params;
  params.shards = 2;
  EXPECT_THROW(ShardedHhhEngine(params,
                                [](std::size_t) {
                                  return std::make_unique<UnivmonHhhEngine>(
                                      UnivmonHhhEngine::Params{.sketch_width = 256});
                                }),
               std::invalid_argument);
  params.shards = 0;
  EXPECT_THROW(ShardedHhhEngine(params, [](std::size_t) {
                 return make_exact_engine(Hierarchy::byte_granularity());
               }),
               std::invalid_argument);
}

TEST(ShardedEngine, SourcePartitioningAlsoExact) {
  // kSource confines each source to one shard; the exact merge must not
  // care which partition key is used.
  const auto packets = stream_for(0x54A2'0006, 15000);
  ExactEngine single(Hierarchy::byte_granularity());
  single.add_batch(packets);

  ShardedHhhEngine::Params params;
  params.shards = 4;
  params.partition = ShardedHhhEngine::PartitionKey::kSource;
  ShardedHhhEngine sharded(params, [](std::size_t) {
    return make_exact_engine(Hierarchy::byte_granularity());
  });
  sharded.add_batch(packets);
  EXPECT_TRUE(harness::hhh_sets_equal(single.extract(0.02), sharded.extract(0.02)));
}

// --- sharded engine inside the disjoint pipeline ----------------------------

TEST(ShardedEngine, DisjointWindowReportsMatchSingleThreadExact) {
  // End-to-end wiring: the pipeline closing windows (report + reset) over
  // a sharded exact engine must reproduce the single-thread reports
  // window for window.
  const auto packets = harness::TraceBuilder(0x54A2'0007)
                           .compact_space()
                           .duration_seconds(8.0)
                           .all();
  const TimePoint end = TimePoint::from_seconds(8.0);
  const auto single =
      harness::disjoint_pipeline_reports(packets, Duration::seconds(2), 0.05, end);
  const auto sharded = harness::disjoint_pipeline_reports(
      packets, Duration::seconds(2), 0.05, end,
      make_sharded_exact_engine(Hierarchy::byte_granularity(), 4));

  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_TRUE(harness::hhh_sets_equal(single[i].hhhs, sharded[i].hhhs)) << "window " << i;
  }
}

}  // namespace
}  // namespace hhh
