// Checkpoint/restore of the sliding and windowless detectors: a restored
// detector must answer what the original answers and, fed the identical
// remaining stream, keep answering identically. (Engine snapshots with
// continued ingestion are covered for every registry engine by the
// snapshot axis, tests/harness/snapshot_axis.cpp.)
#include <gtest/gtest.h>

#include <vector>

#include "core/memento_hhh.hpp"
#include "core/tdbf_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> workload(std::uint64_t seed) {
  return harness::TraceBuilder(seed).compact_space().duration_seconds(8.0).all();
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
