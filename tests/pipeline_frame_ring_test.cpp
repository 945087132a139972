// FrameRing's contract: interval queries equal an offline merge of the
// covered frames, the ring's retention stays bounded, and degenerate
// intervals (empty, partial overlap) behave.
#include "pipeline/frame_ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/memento_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "pipeline/pipeline.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

using namespace hhh::pipeline;

TimePoint at(double t) { return TimePoint::from_seconds(t); }

// Run a disjoint exact-engine pipeline over `packets`, retaining every
// window frame in `ring`.
void run_disjoint(const std::vector<PacketRecord>& packets, FrameRing* ring,
                  Duration window, TimePoint finish) {
  PipelineConfig config;
  config.phi = 0.05;
  config.finish_at = finish;
  Pipeline pipe(make_span_source(packets),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(window), config);
  pipe.add_sink(make_frame_ring_sink(ring));
  pipe.run();
}

TEST(FrameRing, IntervalQueryEqualsOfflineMergeOfCoveredFrames) {
  const auto packets = harness::TraceBuilder(21).compact_space().packets(20000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  FrameRing ring(1024);
  run_disjoint(packets, &ring, Duration::millis(50), end);
  ASSERT_GE(ring.size(), 6u);

  const TimePoint t1 = at(0.05), t2 = at(0.25);
  const auto selected = ring.frames_in(t1, t2);
  ASSERT_GE(selected.size(), 3u);

  // Offline re-merge of the exact frames the ring says it would use.
  std::unique_ptr<HhhEngine> offline;
  for (const RetainedFrame* f : selected) {
    auto engine = wire::load_engine(f->frame);
    if (!offline) {
      offline = std::move(engine);
    } else {
      offline->merge_from(*engine);
    }
  }
  const HhhSet expected = offline->extract(0.05);

  const IntervalReport report = ring.query_interval(t1, t2, 0.05);
  EXPECT_EQ(report.frames_merged, selected.size());
  EXPECT_EQ(report.group, "exact");
  EXPECT_EQ(report.covered_start, selected.front()->start);
  EXPECT_EQ(report.covered_end, selected.back()->end);
  EXPECT_TRUE(harness::hhh_sets_equal(expected, report.hhhs));

  // With exact disjoint frames the merge IS the interval's traffic.
  std::uint64_t interval_bytes = 0;
  for (const auto& p : packets) {
    if (p.ts >= report.covered_start && p.ts < report.covered_end) {
      interval_bytes += p.ip_len;
    }
  }
  EXPECT_EQ(report.hhhs.total_bytes, interval_bytes);
}

TEST(FrameRing, SelectionIsNonOverlappingAndInsideTheInterval) {
  const auto packets = harness::TraceBuilder(22).compact_space().packets(8000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  FrameRing ring(1024);
  run_disjoint(packets, &ring, Duration::millis(50), end);

  const TimePoint t1 = at(0.075), t2 = at(0.33);
  TimePoint cursor = t1;
  for (const RetainedFrame* f : ring.frames_in(t1, t2)) {
    EXPECT_GE(f->start, cursor);  // inside the interval, no overlap
    EXPECT_LE(f->end, t2);
    cursor = f->end;
  }
  // A window straddling t1 is excluded: the 0.05..0.10 frame overlaps
  // t1 = 0.075 and must not be selected.
  for (const RetainedFrame* f : ring.frames_in(t1, t2)) {
    EXPECT_NE(f->start, at(0.05));
  }
}

TEST(FrameRing, EvictionKeepsTheNewestCapacityFrames) {
  const auto packets = harness::TraceBuilder(23).compact_space().packets(20000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  FrameRing ring(4);
  run_disjoint(packets, &ring, Duration::millis(20), end);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  // The retained frames are the last four windows, in order.
  for (std::size_t i = 1; i < ring.frames().size(); ++i) {
    EXPECT_EQ(ring.frames()[i].index, ring.frames()[i - 1].index + 1);
  }
  // Early windows have been evicted: an early interval finds nothing.
  EXPECT_TRUE(ring.frames_in(TimePoint(), at(0.04)).empty());
  // Retention is bounded regardless of how many windows streamed through.
  EXPECT_GT(ring.memory_bytes(), 0u);
}

TEST(FrameRing, EmptyAndPartialOverlapIntervals) {
  const auto packets = harness::TraceBuilder(24).compact_space().packets(8000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  FrameRing ring(1024);
  run_disjoint(packets, &ring, Duration::millis(50), end);

  // An interval before any retained frame: empty report, no throw.
  const IntervalReport none = ring.query_interval(at(100.0), at(200.0), 0.05);
  EXPECT_EQ(none.frames_merged, 0u);
  EXPECT_TRUE(none.hhhs.items().empty());
  EXPECT_EQ(none.group, "");

  // An interval shorter than one window covers no full frame.
  EXPECT_TRUE(ring.frames_in(at(0.06), at(0.09)).empty());

  // Partial overlap: only the fully contained frames are merged.
  const auto partial = ring.frames_in(at(0.07), at(0.21));
  for (const RetainedFrame* f : partial) {
    EXPECT_GE(f->start, at(0.07));
    EXPECT_LE(f->end, at(0.21));
  }
  const IntervalReport report = ring.query_interval(at(0.07), at(0.21), 0.05);
  EXPECT_EQ(report.frames_merged, partial.size());
}

TEST(FrameRing, ServesMementoDetectorFrames) {
  // The sliding-policy path of the tentpole: a Memento stage snapshotted
  // every step, interval queries answered from the retained frames.
  const auto packets = harness::TraceBuilder(25).compact_space().packets(20000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  MementoHhhParams params;
  params.window = Duration::millis(100);
  params.frames = 5;

  PipelineConfig config;
  config.phi = 0.05;
  config.finish_at = end;
  FrameRing ring(1024);
  Pipeline pipe(make_span_source(packets),
                make_memento_stage(std::make_unique<MementoHhhDetector>(params)),
                make_sliding_policy(params.window, Duration::millis(20)), config);
  pipe.add_sink(make_frame_ring_sink(&ring));
  pipe.run();
  ASSERT_GE(ring.size(), 5u);

  const TimePoint t1 = ring.frames().front().start;
  const TimePoint t2 = ring.frames().back().end;
  const auto selected = ring.frames_in(t1, t2);
  ASSERT_GE(selected.size(), 2u);

  // Offline merge through the detector's own decode path.
  std::unique_ptr<MementoDetector> offline;
  TimePoint watermark;
  for (const RetainedFrame* f : selected) {
    const wire::FrameView view = wire::parse_frame(f->frame);
    ASSERT_EQ(view.kind, wire::SnapshotKind::kMementoDetector);
    wire::Reader r(view.payload, view.version);
    auto det = deserialize_memento_detector(r);
    watermark = std::max(watermark, det->high_watermark());
    if (!offline) {
      offline = std::move(det);
    } else {
      offline->merge_from(*det);
    }
  }
  const HhhSet expected = offline->query(watermark, 0.05);

  const IntervalReport report = ring.query_interval(t1, t2, 0.05);
  EXPECT_EQ(report.group, "memento");
  EXPECT_EQ(report.frames_merged, selected.size());
  EXPECT_TRUE(harness::hhh_sets_equal(expected, report.hhhs));
}

TEST(FrameRing, RetainedRetiredKind6FrameFailsTheQueryWithATypedError) {
  // Kind 6 (the removed WCSS detector) still parses as a frame, so the
  // ring retains it; decoding it for a query is refused.
  FrameRing ring(4);
  const auto frame = wire::build_frame(static_cast<wire::SnapshotKind>(6),
                                       std::vector<std::uint8_t>{1, 2, 3, 4});
  ring.push(WindowReport{.index = 0, .start = at(0.0), .end = at(1.0), .hhhs = {}}, frame);
  try {
    (void)ring.query_interval(at(0.0), at(1.0), 0.05);
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kUnsupportedEngine) << e.what();
  }
}

TEST(FrameRing, RejectsZeroCapacityAndNullSink) {
  EXPECT_THROW(FrameRing(0), std::invalid_argument);
  EXPECT_THROW(make_frame_ring_sink(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace hhh
