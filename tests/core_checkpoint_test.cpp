// Checkpoint/restore of the windowless TDBF detector: a restored
// detector must answer what the original answers and, fed the identical
// remaining stream, keep answering identically. (Snapshots with continued
// ingestion and wire merges are covered for every registry engine and
// both Memento detectors by the snapshot axis,
// tests/harness/snapshot_axis.cpp.)
#include <gtest/gtest.h>

#include <vector>

#include "core/tdbf_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

std::vector<PacketRecord> workload(std::uint64_t seed) {
  return harness::TraceBuilder(seed).compact_space().duration_seconds(8.0).all();
}

TEST(TdbfDetectorCheckpoint, RoundTripPreservesContinuousQueries) {
  TimeDecayingHhhDetector::Params params;
  params.cells_per_level = 1 << 10;
  params.candidates_per_level = 64;
  TimeDecayingHhhDetector original(params);
  const auto packets = workload(0xC4EC'0006);
  for (const auto& p : packets) original.add(p);

  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  original.save_state(w);

  TimeDecayingHhhDetector restored(params);
  wire::Reader r(bytes);
  restored.load_state(r);

  const TimePoint now = packets.back().ts + Duration::seconds(1);
  EXPECT_DOUBLE_EQ(original.total(now), restored.total(now));
  EXPECT_TRUE(harness::hhh_sets_equal(original.report(now, 0.05), restored.report(now, 0.05)));

  // Continuing the stream after restore stays equivalent (same rescale
  // cursor, same candidate state).
  auto more = workload(0xC4EC'0007);
  for (auto& p : more) {
    p.ts = p.ts + Duration::seconds(9);
    original.add(p);
    restored.add(p);
  }
  const TimePoint later = more.back().ts;
  EXPECT_TRUE(
      harness::hhh_sets_equal(original.report(later, 0.05), restored.report(later, 0.05)));
}

}  // namespace
}  // namespace hhh
