// Checkpoint/restore: long-running monitors must survive a process
// restart *mid-window* with no observable difference — the restored
// detector, fed the identical remaining stream, produces byte-identical
// reports to a monitor that never restarted.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/disjoint_window.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "core/tdbf_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> workload(std::uint64_t seed) {
  return harness::TraceBuilder(seed).compact_space().duration_seconds(8.0).all();
}

/// Split so the cut lands mid-window for a 1 s window.
std::pair<std::span<const PacketRecord>, std::span<const PacketRecord>> split_mid_window(
    const std::vector<PacketRecord>& packets) {
  const std::span<const PacketRecord> all(packets);
  std::size_t cut = 0;
  while (cut < all.size() && all[cut].ts < TimePoint::from_seconds(3.5)) ++cut;
  return {all.subspan(0, cut), all.subspan(cut)};
}

void run_disjoint_checkpoint_case(const DisjointWindowHhhDetector::Params& params) {
  const auto packets = workload(0xC4EC'0001);
  const auto [before, after] = split_mid_window(packets);
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(after.empty());

  // Reference monitor: never restarts.
  DisjointWindowHhhDetector reference(params);
  reference.offer_batch(before);
  reference.offer_batch(after);
  reference.finish(TimePoint::from_seconds(8.0));

  // Restarting monitor: checkpoint mid-window, restore into a fresh
  // detector, continue with the identical remainder.
  std::vector<std::uint8_t> checkpoint;
  {
    DisjointWindowHhhDetector first_run(params);
    first_run.offer_batch(before);
    wire::Writer w(checkpoint);
    first_run.checkpoint(w);
  }  // "process exits"

  DisjointWindowHhhDetector restored(params);
  {
    wire::Reader r(checkpoint);
    restored.restore(r);
  }
  restored.offer_batch(after);
  restored.finish(TimePoint::from_seconds(8.0));

  ASSERT_EQ(reference.reports().size(), restored.reports().size());
  for (std::size_t i = 0; i < reference.reports().size(); ++i) {
    EXPECT_EQ(reference.reports()[i].index, restored.reports()[i].index);
    EXPECT_EQ(reference.reports()[i].start, restored.reports()[i].start);
    EXPECT_TRUE(harness::hhh_sets_equal(reference.reports()[i].hhhs,
                                        restored.reports()[i].hhhs))
        << "window " << i;
  }
}

TEST(DisjointWindowCheckpoint, ExactEngineSurvivesMidWindowRestart) {
  run_disjoint_checkpoint_case({.window = Duration::seconds(1), .phi = 0.05});
}

TEST(DisjointWindowCheckpoint, ShardedEngineSurvivesMidWindowRestart) {
  // params.shards drives the default engine: restore() rebuilds the same
  // sharded topology and loads each replica in shard order.
  run_disjoint_checkpoint_case({.window = Duration::seconds(1), .phi = 0.05, .shards = 4});
}

TEST(DisjointWindowCheckpoint, InjectedRhhhEngineSurvivesMidWindowRestart) {
  // Randomized engine: the RNG state rides the checkpoint, so the
  // restored monitor samples the exact same levels for the remainder.
  const RhhhEngine::Params rp{.counters_per_level = 256, .seed = 99};
  const DisjointWindowHhhDetector::Params dp{.window = Duration::seconds(1), .phi = 0.05};
  const auto packets = workload(0xC4EC'0002);
  const auto [before, after] = split_mid_window(packets);

  DisjointWindowHhhDetector reference(dp, std::make_unique<RhhhEngine>(rp));
  reference.offer_batch(before);
  reference.offer_batch(after);
  reference.finish(TimePoint::from_seconds(8.0));

  std::vector<std::uint8_t> checkpoint;
  {
    DisjointWindowHhhDetector first_run(dp, std::make_unique<RhhhEngine>(rp));
    first_run.offer_batch(before);
    wire::Writer w(checkpoint);
    first_run.checkpoint(w);
  }
  DisjointWindowHhhDetector restored(dp, std::make_unique<RhhhEngine>(rp));
  wire::Reader r(checkpoint);
  restored.restore(r);
  restored.offer_batch(after);
  restored.finish(TimePoint::from_seconds(8.0));

  ASSERT_EQ(reference.reports().size(), restored.reports().size());
  for (std::size_t i = 0; i < reference.reports().size(); ++i) {
    EXPECT_TRUE(harness::hhh_sets_equal(reference.reports()[i].hhhs,
                                        restored.reports()[i].hhhs))
        << "window " << i;
  }
}

TEST(DisjointWindowCheckpoint, RestoreIntoMismatchedParamsIsTyped) {
  DisjointWindowHhhDetector source({.window = Duration::seconds(1), .phi = 0.05});
  std::vector<std::uint8_t> checkpoint;
  wire::Writer w(checkpoint);
  source.checkpoint(w);

  DisjointWindowHhhDetector wrong({.window = Duration::seconds(2), .phi = 0.05});
  wire::Reader r(checkpoint);
  try {
    wrong.restore(r);
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kParamsMismatch);
  }
}

TEST(MementoDetectorSnapshot, WireMergeEqualsInProcessMerge) {
  // The collector invariant for the sliding model: crossing the wire must
  // not change what the frame-aligned merge produces.
  const MementoHhhParams params{.window = Duration::seconds(2),
                                .frames = 8,
                                .counters_per_level = 128};
  const auto stream_a = workload(0xC4EC'0004);
  const auto stream_b = workload(0xC4EC'0005);

  MementoHhhDetector ref_a(params), ref_b(params);
  ref_a.offer_batch(stream_a);
  ref_b.offer_batch(stream_b);
  ref_a.merge_from(ref_b);

  MementoHhhDetector live_a(params), live_b(params);
  live_a.offer_batch(stream_a);
  live_b.offer_batch(stream_b);
  std::vector<std::uint8_t> bytes_a, bytes_b;
  wire::Writer wa(bytes_a), wb(bytes_b);
  live_a.save_state(wa);
  live_b.save_state(wb);
  wire::Reader ra(bytes_a), rb(bytes_b);
  auto wire_a = deserialize_memento_detector(ra);
  auto wire_b = deserialize_memento_detector(rb);
  wire_a->merge_from(*wire_b);

  const TimePoint now = ref_a.high_watermark();
  EXPECT_EQ(wire_a->high_watermark(), now);
  EXPECT_DOUBLE_EQ(wire_a->window_total(now), ref_a.window_total(now));
  EXPECT_TRUE(harness::hhh_sets_equal(ref_a.query(now, 0.05), wire_a->query(now, 0.05)));
}

TEST(TdbfDetectorCheckpoint, RoundTripPreservesContinuousQueries) {
  TimeDecayingHhhDetector::Params params;
  params.cells_per_level = 1 << 10;
  params.candidates_per_level = 64;
  TimeDecayingHhhDetector original(params);
  const auto packets = workload(0xC4EC'0006);
  for (const auto& p : packets) original.offer(p);

  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  original.save_state(w);

  TimeDecayingHhhDetector restored(params);
  wire::Reader r(bytes);
  restored.load_state(r);

  const TimePoint now = packets.back().ts + Duration::seconds(1);
  EXPECT_DOUBLE_EQ(original.decayed_total(now), restored.decayed_total(now));
  EXPECT_TRUE(harness::hhh_sets_equal(original.query(now, 0.05), restored.query(now, 0.05)));

  // Continuing the stream after restore stays equivalent (same rescale
  // cursor, same candidate state).
  auto more = workload(0xC4EC'0007);
  for (auto& p : more) {
    p.ts = p.ts + Duration::seconds(9);
    original.offer(p);
    restored.offer(p);
  }
  const TimePoint later = more.back().ts;
  EXPECT_TRUE(
      harness::hhh_sets_equal(original.query(later, 0.05), restored.query(later, 0.05)));
}

}  // namespace
}  // namespace hhh
