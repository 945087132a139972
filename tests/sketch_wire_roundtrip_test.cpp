// Wire round trips for every serializable sketch: restoring a snapshot
// into an identically-constructed instance must reproduce estimates
// exactly AND keep behaving identically on subsequent updates (slot
// order, heap order and eviction state all travel).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/sweep.hpp"
#include "sketch/count_min.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/memento.hpp"
#include "sketch/misra_gries.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/tdbf.hpp"
#include "util/random.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

/// save_state into a buffer, load_state into `into`.
template <typename T>
void round_trip(const T& from, T& into) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  from.save_state(w);
  wire::Reader r(bytes);
  into.load_state(r);
  EXPECT_TRUE(r.done()) << "payload not fully consumed";
}

TEST(SketchWireRoundTrip, SpaceSavingExactIncludingFutureEvictions) {
  harness::for_each_seed(0x22EE'0001, 3, [](std::uint64_t seed) {
    Rng rng(seed);
    SpaceSaving original(64);
    for (int i = 0; i < 5000; ++i) original.update(rng.below(500), 1.0 + rng.below(100));

    SpaceSaving restored(64);
    round_trip(original, restored);

    EXPECT_EQ(restored.total(), original.total());
    EXPECT_EQ(restored.size(), original.size());
    EXPECT_EQ(restored.min_count(), original.min_count());
    for (std::uint64_t key = 0; key < 500; ++key) {
      EXPECT_EQ(restored.estimate(key), original.estimate(key)) << key;
    }
    // Continue both with the same stream: eviction decisions must match
    // because the heap and slot order travelled with the snapshot.
    Rng more(seed ^ 1);
    SpaceSaving original2 = original;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = more.below(1000);
      const double weight = 1.0 + more.below(50);
      original2.update(key, weight);
      restored.update(key, weight);
    }
    for (std::uint64_t key = 0; key < 1000; ++key) {
      EXPECT_EQ(restored.estimate(key), original2.estimate(key)) << key;
    }
  });
}

TEST(SketchWireRoundTrip, SpaceSavingCapacityMismatchIsTyped) {
  SpaceSaving a(64), b(32);
  a.update(1, 1.0);
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  a.save_state(w);
  wire::Reader r(bytes);
  try {
    b.load_state(r);
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kParamsMismatch);
  }
}

TEST(SketchWireRoundTrip, CountMinExact) {
  const CountMinParams params{.width = 512, .depth = 4, .conservative = true, .seed = 9};
  CountMinSketch original(params);
  Rng rng(0x22EE'0002);
  for (int i = 0; i < 5000; ++i) original.update(rng.below(2000), 1 + rng.below(64));

  CountMinSketch restored(params);
  round_trip(original, restored);
  EXPECT_EQ(restored.total(), original.total());
  for (std::uint64_t key = 0; key < 2000; ++key) {
    EXPECT_EQ(restored.estimate(key), original.estimate(key)) << key;
  }
}

TEST(SketchWireRoundTrip, CountSketchExact) {
  CountSketch original(512, 5, 0x5EED);
  Rng rng(0x22EE'0003);
  for (int i = 0; i < 5000; ++i) {
    original.update(rng.below(2000), static_cast<std::int64_t>(rng.below(64)) - 16);
  }
  CountSketch restored(512, 5, 0x5EED);
  round_trip(original, restored);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    EXPECT_EQ(restored.estimate(key), original.estimate(key)) << key;
  }
  EXPECT_EQ(restored.f2_estimate(), original.f2_estimate());
}

TEST(SketchWireRoundTrip, MisraGriesExact) {
  MisraGries original(32);
  Rng rng(0x22EE'0004);
  for (int i = 0; i < 5000; ++i) original.update(rng.below(300), 1.0 + rng.below(10));

  MisraGries restored(32);
  round_trip(original, restored);
  EXPECT_EQ(restored.total(), original.total());
  EXPECT_EQ(restored.size(), original.size());
  for (std::uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(restored.estimate(key), original.estimate(key)) << key;
  }
}

TEST(SketchWireRoundTrip, DecayingCountingBloomFilterExact) {
  DecayingCountingBloomFilter::Params params;
  params.cells = 1 << 10;
  DecayingCountingBloomFilter original(params);
  Rng rng(0x22EE'0006);
  TimePoint t;
  for (int i = 0; i < 3000; ++i) {
    t += Duration::micros(static_cast<std::int64_t>(rng.below(2000)));
    original.update(rng.below(400), 1.0 + rng.below(100), t);
  }
  DecayingCountingBloomFilter restored(params);
  round_trip(original, restored);
  const TimePoint later = t + Duration::seconds(3);
  EXPECT_EQ(restored.total(later), original.total(later));
  for (std::uint64_t key = 0; key < 400; ++key) {
    EXPECT_EQ(restored.estimate(key, later), original.estimate(key, later)) << key;
  }
}

TEST(SketchWireRoundTrip, MementoSummaryExactAcrossFrames) {
  const MementoSummary::Params params{.window = Duration::seconds(2),
                                      .frames = 8,
                                      .counters = 32};
  MementoSummary original(params);
  Rng rng(0x22EE'0007);
  TimePoint t;
  for (int i = 0; i < 4000; ++i) {
    t += Duration::micros(static_cast<std::int64_t>(rng.below(2000)));
    original.update(rng.below(200), 1.0 + rng.below(50), t);
  }
  MementoSummary restored(params);
  round_trip(original, restored);
  EXPECT_EQ(restored.high_watermark(), original.high_watermark());
  EXPECT_EQ(restored.window_total(t), original.window_total(t));
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.estimate(key, t), original.estimate(key, t)) << key;
  }
}

}  // namespace
}  // namespace hhh
