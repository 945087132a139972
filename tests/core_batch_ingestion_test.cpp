// Batched ingestion (add_batch) correctness.
//
// The conformance suite checks the engine-level contract; this file pins
// the sharp edges of the two optimized fast paths:
//  * LevelAggregates::add_batch — the gathered, pre-hashed leaf pass must
//    be byte-identical to the add() loop at every level, at any batch
//    size, on any stream;
//  * RhhhEngine::add_batch — amortized level sampling must keep exact
//    byte totals and spread updates across all levels.
#include <gtest/gtest.h>

#include <span>

#include "core/exact_engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "core/rhhh.hpp"
#include "harness/golden.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> stream_for(std::uint64_t seed, std::size_t n) {
  return harness::TraceBuilder(seed).compact_space().packets(n);
}

void feed_batched(HhhEngine& engine, std::span<const PacketRecord> packets,
                  std::size_t batch) {
  for (std::size_t i = 0; i < packets.size(); i += batch) {
    engine.add_batch(packets.subspan(i, std::min(batch, packets.size() - i)));
  }
}

TEST(LevelAggregatesBatch, IdenticalToAddLoopAtEveryLevel) {
  const auto packets = stream_for(0xBA7C, 30000);
  LevelAggregates loop(Hierarchy::byte_granularity());
  for (const auto& p : packets) loop.add(p.src(), p.ip_len);

  // Deliberately awkward batch sizes: 1 (degenerate), a prime, a power of
  // two larger than the stream's distinct-source count.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{613}, std::size_t{8192}}) {
    LevelAggregates batched(Hierarchy::byte_granularity());
    const std::span<const PacketRecord> all(packets);
    for (std::size_t i = 0; i < all.size(); i += batch) {
      batched.add_batch(all.subspan(i, std::min(batch, all.size() - i)));
    }
    ASSERT_EQ(batched.total_bytes(), loop.total_bytes()) << "batch=" << batch;
    EXPECT_EQ(harness::level_counters(batched), harness::level_counters(loop))
        << "batch=" << batch;
  }
}

TEST(LevelAggregatesBatch, EmptyBatchIsNoOp) {
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add_batch({});
  EXPECT_EQ(agg.total_bytes(), 0u);
  agg.add(Ipv4Address::of(10, 0, 0, 1), 100);
  agg.add_batch({});
  EXPECT_EQ(agg.total_bytes(), 100u);
}

TEST(LevelAggregatesBatch, BatchThenRemoveReturnsToEmpty) {
  // add_batch must interoperate with remove() (the sliding-window path):
  // counters reach zero and are erased, exactly as with per-packet add().
  const auto packets = stream_for(0xBA7D, 5000);
  LevelAggregates agg(Hierarchy::byte_granularity());
  agg.add_batch(packets);
  for (const auto& p : packets) agg.remove(p.src(), p.ip_len);
  EXPECT_EQ(agg.total_bytes(), 0u);
  for (std::size_t level = 0; level < Hierarchy::byte_granularity().levels(); ++level) {
    EXPECT_EQ(agg.distinct_at(level), 0u) << "level " << level;
  }
}

TEST(LevelAggregatesBatch, SweepExactEquivalenceOnRandomStreams) {
  // Golden sweep: on independently seeded streams, the batched exact
  // engine must extract the byte-identical HHH set as the loop engine.
  harness::for_each_seed(0x5EED'BA7C, 5, [](std::uint64_t seed) {
    const auto packets =
        harness::TraceBuilder(seed).compact_space().bursts(true).packets(8000);
    ExactEngine loop(Hierarchy::byte_granularity());
    for (const auto& p : packets) loop.add(p);
    ExactEngine batched(Hierarchy::byte_granularity());
    feed_batched(batched, packets, 1024);
    EXPECT_TRUE(harness::hhh_sets_equal(loop.extract(0.03), batched.extract(0.03)));
  });
}

TEST(RhhhBatch, ByteTotalsStayExactUnderSampling) {
  const auto packets = stream_for(0xBA7E, 20000);
  RhhhEngine engine({.counters_per_level = 512, .seed = 7});
  feed_batched(engine, packets, 4096);
  EXPECT_EQ(engine.total_bytes(), harness::byte_sum(packets));
}

TEST(RhhhBatch, SamplingTouchesEveryLevel) {
  // The amortized two-draws-per-RNG-step reduction must still distribute
  // updates over all hierarchy levels: after a large batched stream, every
  // level's root-ward estimate is non-zero (each level saw ~n/H packets).
  const auto packets = stream_for(0xBA7F, 40000);
  RhhhEngine engine({.counters_per_level = 512, .seed = 11});
  feed_batched(engine, packets, 8192);
  const auto hierarchy = Hierarchy::byte_granularity();
  // The root prefix aggregates the whole stream at the coarsest level; a
  // level whose Space-Saving instance never got an update estimates 0 for
  // every prefix, including the ones that must be heavy.
  EXPECT_GT(engine.estimate(Ipv4Prefix::root()), 0.0);
  const auto set = engine.extract(0.2);
  EXPECT_FALSE(set.empty());
  for (const auto& item : set.items()) {
    EXPECT_NE(hierarchy.level_of(item.prefix), Hierarchy::npos);
  }
}

TEST(RhhhBatch, OddBatchSizesConsumeWholeStream) {
  // The two-packets-per-draw loop must handle odd batch lengths (the tail
  // packet uses only the low half of the final draw).
  const auto packets = stream_for(0xBA80, 999);
  RhhhEngine engine({.counters_per_level = 256, .seed = 13});
  engine.add_batch(packets);
  EXPECT_EQ(engine.total_bytes(), harness::byte_sum(packets));
  RhhhEngine one_by_one({.counters_per_level = 256, .seed = 13});
  for (const auto& p : packets) one_by_one.add_batch({&p, 1});
  EXPECT_EQ(one_by_one.total_bytes(), harness::byte_sum(packets));
}

}  // namespace
}  // namespace hhh
