// Determinism regressions for the staged sharded dispatch and the
// quiesce-free epoch-snapshot extraction (core/sharded_engine.hpp).
//
// Contracts pinned here:
//  * exact replicas: extraction is byte-identical to single-thread
//    ingestion for every shard count, across repeated runs, for any mix
//    of add()/add_batch() segmentation, and regardless of the staging
//    publish threshold — staged dispatch must never change WHAT is
//    counted, only when it moves;
//  * epoch snapshots: a mid-stream extract() reflects exactly the packets
//    offered so far (nothing staged left behind, nothing from the
//    future), and ingestion continues undisturbed after it;
//  * extract() and fold()->extract() agree (same snapshot path);
//  * the SIMD batch partition path places every packet on the same shard
//    as the scalar shard_of — pinned end-to-end through RHHH replicas,
//    whose results (unlike lossless exact merges) change if placement
//    drifts: add() per packet takes the scalar path, add_batch() the
//    SIMD path, and both must extract identically. v4, v6 and
//    mixed-family (scalar fallback) streams.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/rhhh.hpp"
#include "core/sharded_engine.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/trace_builder.hpp"

namespace hhh {
namespace {

constexpr double kPhis[] = {0.01, 0.03, 0.1};

std::vector<PacketRecord> v4_stream(std::uint64_t seed, std::size_t n) {
  return harness::TraceBuilder(seed).compact_space().packets(n);
}

void feed_in_chunks(HhhEngine& engine, const std::vector<PacketRecord>& packets,
                    std::size_t chunk) {
  for (std::size_t i = 0; i < packets.size(); i += chunk) {
    const std::size_t n = std::min(chunk, packets.size() - i);
    engine.add_batch(std::span<const PacketRecord>(packets.data() + i, n));
  }
}

TEST(ShardedDeterminism, ExactExtractIdenticalAcrossShardCounts) {
  const auto packets = v4_stream(0x5AD0'0001, 40000);
  auto reference = make_exact_engine(Hierarchy::byte_granularity());
  reference->add_batch(packets);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    auto sharded = make_sharded_exact_engine(Hierarchy::byte_granularity(), shards);
    feed_in_chunks(*sharded, packets, 1000);
    EXPECT_EQ(sharded->total_bytes(), reference->total_bytes()) << "shards=" << shards;
    for (const double phi : kPhis) {
      EXPECT_TRUE(harness::hhh_sets_equal(reference->extract(phi), sharded->extract(phi)))
          << "shards=" << shards << " phi=" << phi;
    }
  }
}

TEST(ShardedDeterminism, RepeatedRunsAreIdentical) {
  const auto packets = v4_stream(0x5AD0'0002, 30000);
  const auto run = [&packets] {
    auto sharded = make_sharded_exact_engine(Hierarchy::byte_granularity(), 4);
    feed_in_chunks(*sharded, packets, 777);  // odd chunking on purpose
    return sharded->extract(0.03);
  };
  const HhhSet first = run();
  const HhhSet second = run();
  EXPECT_TRUE(harness::hhh_sets_equal(first, second));
}

TEST(ShardedDeterminism, SegmentationAndPublishThresholdInvariantForExact) {
  const auto packets = v4_stream(0x5AD0'0003, 25000);
  auto reference = make_exact_engine(Hierarchy::byte_granularity());
  reference->add_batch(packets);

  for (const std::size_t dispatch_batch : {1u, 64u, 4096u, 100000u}) {
    ShardedHhhEngine::Params params;
    params.shards = 4;
    params.dispatch_batch = dispatch_batch;
    ShardedHhhEngine sharded(params, [](std::size_t) {
      return make_exact_engine(Hierarchy::byte_granularity());
    });
    // Mixed segmentation: a per-packet prefix, then odd batch chunks.
    for (std::size_t i = 0; i < packets.size() / 3; ++i) sharded.add(packets[i]);
    for (std::size_t i = packets.size() / 3; i < packets.size(); i += 997) {
      const std::size_t n = std::min<std::size_t>(997, packets.size() - i);
      sharded.add_batch(std::span<const PacketRecord>(packets.data() + i, n));
    }
    EXPECT_EQ(sharded.total_bytes(), reference->total_bytes());
    EXPECT_TRUE(harness::hhh_sets_equal(reference->extract(0.03), sharded.extract(0.03)))
        << "dispatch_batch=" << dispatch_batch;
  }
}

TEST(ShardedDeterminism, ExtractEqualsFoldExtract) {
  const auto packets = v4_stream(0x5AD0'0004, 20000);
  auto sharded = make_sharded_exact_engine(Hierarchy::byte_granularity(), 4);
  feed_in_chunks(*sharded, packets, 500);
  auto* engine = dynamic_cast<ShardedHhhEngine*>(sharded.get());
  ASSERT_NE(engine, nullptr);
  const auto folded = engine->fold();
  for (const double phi : kPhis) {
    EXPECT_TRUE(harness::hhh_sets_equal(folded->extract(phi), sharded->extract(phi)));
  }
}

TEST(ShardedDeterminism, MidStreamSnapshotSeesExactlyTheOfferedPrefix) {
  const auto packets = v4_stream(0x5AD0'0005, 30000);
  const std::size_t half = packets.size() / 2;

  auto prefix_ref = make_exact_engine(Hierarchy::byte_granularity());
  prefix_ref->add_batch(std::span<const PacketRecord>(packets.data(), half));
  auto full_ref = make_exact_engine(Hierarchy::byte_granularity());
  full_ref->add_batch(packets);

  // Huge publish threshold: at the mid-stream extract most of the prefix
  // is still sitting in the staging buffers, so this fails loudly if the
  // snapshot path forgets to flush them.
  ShardedHhhEngine::Params params;
  params.shards = 4;
  params.dispatch_batch = 1 << 20;
  ShardedHhhEngine sharded(params, [](std::size_t) {
    return make_exact_engine(Hierarchy::byte_granularity());
  });
  feed_in_chunks(sharded, {packets.begin(), packets.begin() + half}, 900);
  EXPECT_EQ(sharded.total_bytes(), prefix_ref->total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(prefix_ref->extract(0.03), sharded.extract(0.03)));

  // Ingestion continues undisturbed after the snapshot.
  feed_in_chunks(sharded, {packets.begin() + half, packets.end()}, 900);
  EXPECT_EQ(sharded.total_bytes(), full_ref->total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(full_ref->extract(0.03), sharded.extract(0.03)));
}

// --- SIMD partition path vs scalar shard_of ---------------------------------

// RHHH replicas make shard placement observable: each replica's RNG draw
// sequence depends on exactly which packets (in which sub-batches) it
// received, so if the SIMD batch partition disagreed with the scalar
// per-packet path anywhere, the two engines below would diverge.
void expect_simd_placement_matches_scalar(const std::vector<PacketRecord>& packets,
                                          const Hierarchy& hierarchy,
                                          ShardedHhhEngine::PartitionKey partition) {
  const auto factory = [&hierarchy](std::size_t shard) -> std::unique_ptr<HhhEngine> {
    if (hierarchy.family() == AddressFamily::kIpv4) {
      return std::make_unique<RhhhEngine>(RhhhEngine::Params{
          .hierarchy = hierarchy, .counters_per_level = 64, .seed = 0xBEEF + shard});
    }
    return std::make_unique<RhhhV6Engine>(RhhhV6Engine::Params{
        .hierarchy = hierarchy, .counters_per_level = 64, .seed = 0xBEEF + shard});
  };
  ShardedHhhEngine::Params params;
  params.shards = 4;
  params.partition = partition;

  ShardedHhhEngine via_add(params, factory);
  for (const auto& p : packets) via_add.add(p);  // scalar shard_of per packet

  ShardedHhhEngine via_batch(params, factory);
  via_batch.add_batch(packets);  // SIMD compute_shard_indices

  EXPECT_EQ(via_add.total_bytes(), via_batch.total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(via_add.extract(0.02), via_batch.extract(0.02)));
}

TEST(ShardedDeterminism, SimdFlowPartitionMatchesScalarV4) {
  expect_simd_placement_matches_scalar(v4_stream(0x5AD0'0006, 20000),
                                       Hierarchy::byte_granularity(),
                                       ShardedHhhEngine::PartitionKey::kFlow);
}

TEST(ShardedDeterminism, SimdFlowPartitionMatchesScalarV6) {
  const auto packets =
      harness::TraceBuilder(0x5AD0'0007).compact_space().v6_fraction(1.0).packets(20000);
  expect_simd_placement_matches_scalar(packets, Hierarchy::v6_nibble_granularity(),
                                       ShardedHhhEngine::PartitionKey::kFlow);
}

TEST(ShardedDeterminism, MixedFamilyFallbackMatchesScalar) {
  // Mixed batches take the scalar fallback inside compute_shard_indices;
  // v4-domain replicas simply ignore the v6 records, but placement of the
  // v4 ones must still match the per-packet path exactly.
  const auto packets =
      harness::TraceBuilder(0x5AD0'0008).compact_space().v6_fraction(0.35).packets(20000);
  expect_simd_placement_matches_scalar(packets, Hierarchy::byte_granularity(),
                                       ShardedHhhEngine::PartitionKey::kFlow);
}

TEST(ShardedDeterminism, SimdSourcePartitionMatchesScalar) {
  expect_simd_placement_matches_scalar(v4_stream(0x5AD0'0009, 20000),
                                       Hierarchy::byte_granularity(),
                                       ShardedHhhEngine::PartitionKey::kSource);
  const auto v6 =
      harness::TraceBuilder(0x5AD0'000A).compact_space().v6_fraction(1.0).packets(20000);
  expect_simd_placement_matches_scalar(v6, Hierarchy::v6_nibble_granularity(),
                                       ShardedHhhEngine::PartitionKey::kSource);
}

// --- window-boundary epoch attribution --------------------------------------

// The staged-dispatch fix pinned end to end: a window close (extract +
// reset) must flush and ingest every staged packet into the CLOSING
// window, never leak it into the next one. The publish threshold is far
// larger than an entire window's traffic, so at every close all of the
// window's packets are still sitting in the staging buffers — if the
// boundary path forgot to flush, whole windows would report empty and the
// next window would over-count.
TEST(ShardedWindowBoundary, StagedPacketsAttributeToTheClosingWindow) {
  const auto packets = harness::TraceBuilder(0x5AD0'000B)
                           .compact_space()
                           .duration_seconds(5.0)
                           .all();
  ASSERT_FALSE(packets.empty());
  const Duration window = Duration::seconds(1);
  const double phi = 0.05;
  const TimePoint end = packets.back().ts;

  const auto make_staged_sharded = [] {
    ShardedHhhEngine::Params p;
    p.shards = 4;
    p.dispatch_batch = 1 << 20;  // never reached: only boundary flushes publish
    return std::make_unique<ShardedHhhEngine>(p, [](std::size_t) {
      return make_exact_engine(Hierarchy::byte_granularity());
    });
  };

  // Single-thread exact engine as the reference; the staged sharded
  // engine read one packet at a time and in boundary-split 4096-packet
  // batches.
  const auto reference = harness::disjoint_pipeline_reports(packets, window, phi, end);
  const auto offered = harness::disjoint_pipeline_reports(packets, window, phi, end,
                                                          make_staged_sharded(), 1);
  const auto batched = harness::disjoint_pipeline_reports(packets, window, phi, end,
                                                          make_staged_sharded(), 4096);

  ASSERT_GE(reference.size(), 4u) << "stream must span several windows";
  for (const auto* candidate : {&offered, &batched}) {
    const auto& actual = *candidate;
    ASSERT_EQ(actual.size(), reference.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      const auto& expect = reference[i];
      EXPECT_EQ(actual[i].index, expect.index) << "window " << i;
      EXPECT_EQ(actual[i].start, expect.start) << "window " << i;
      EXPECT_EQ(actual[i].end, expect.end) << "window " << i;
      EXPECT_TRUE(harness::hhh_sets_equal(expect.hhhs, actual[i].hhhs)) << "window " << i;
    }
  }
}

}  // namespace
}  // namespace hhh
