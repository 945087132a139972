// Window-boundary edge cases for both window models.
//
// The paper's whole argument lives at window boundaries (traffic split
// across a boundary hides HHHs), so the boundary arithmetic itself must
// be airtight: empty windows still report, a packet exactly on a boundary
// lands in the *next* window, phi = 1.0 is a legal threshold, a single
// packet is a complete window — and ill-behaved timestamps (duplicates on
// a boundary, out-of-order arrivals around one) must resolve the same way
// whatever the pipeline's batch size. Both models run as they do
// everywhere: the disjoint model (Fig. 1a) as an engine behind the
// pipeline's disjoint policy, the sliding model (Fig. 1b) as the exact
// sliding summary behind the sliding policy.
#include <gtest/gtest.h>

#include "core/sharded_engine.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/trace_builder.hpp"
#include "pipeline/pipeline.hpp"

namespace hhh {
namespace {

using harness::packet_at;

const Ipv4Address kSrc = Ipv4Address::of(10, 1, 2, 3);

/// Exact-engine disjoint reports of `packets` through the pipeline.
std::vector<WindowReport> pipeline_reports(std::span<const PacketRecord> packets,
                                           Duration window, double phi, TimePoint end,
                                           std::size_t batch_size = 4096) {
  return harness::disjoint_pipeline_reports(packets, window, phi, end, nullptr, batch_size);
}

// --- disjoint windows through the pipeline ----------------------------------

TEST(DisjointWindowBoundary, EmptyWindowsStillReportEmptySets) {
  // Traffic only in window 0 and window 3; 1 and 2 are silent.
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 100),
                                             packet_at(3.5, kSrc, 100)};
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.05,
                                        TimePoint::from_seconds(4.0));
  ASSERT_EQ(reports.size(), 4u);
  for (const std::size_t quiet : {std::size_t{1}, std::size_t{2}}) {
    const auto& r = reports[quiet];
    EXPECT_EQ(r.index, quiet);
    EXPECT_TRUE(r.hhhs.empty()) << "window " << quiet;
    EXPECT_EQ(r.hhhs.total_bytes, 0u) << "window " << quiet;
  }
  EXPECT_FALSE(reports[0].hhhs.empty());
  EXPECT_FALSE(reports[3].hhhs.empty());
}

TEST(DisjointWindowBoundary, ExtractOnFreshEngineIsEmpty) {
  // Nothing elapsed, nothing offered: no window closes, and the engine
  // the stage starts from extracts nothing.
  EXPECT_TRUE(pipeline_reports({}, Duration::seconds(1), 0.05, TimePoint::from_seconds(0.0))
                  .empty());
  const auto engine = make_exact_engine(Hierarchy::byte_granularity());
  EXPECT_TRUE(engine->extract(0.05).empty());
  EXPECT_EQ(engine->total_bytes(), 0u);
}

TEST(DisjointWindowBoundary, PacketExactlyOnBoundaryOpensNextWindow) {
  // Windows cover [kW, (k+1)W): a packet at t = W belongs to window 1 and
  // its arrival closes (and resets) window 0.
  const std::vector<PacketRecord> packets = {packet_at(0.25, kSrc, 700),
                                             packet_at(1.0, kSrc, 300)};  // on the boundary
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.5,
                                        TimePoint::from_seconds(2.0));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].hhhs.total_bytes, 700u);
  EXPECT_EQ(reports[1].hhhs.total_bytes, 300u);
  EXPECT_EQ(reports[0].end, reports[1].start);
}

TEST(DisjointWindowBoundary, ResetAtBoundaryForgetsPriorWindow) {
  // 900 bytes in window 0 + 100 in window 1: if the boundary reset leaked
  // state, window 1's lone source would clear phi=0.5 of 1000 bytes.
  const std::vector<PacketRecord> packets = {
      packet_at(0.1, kSrc, 900), packet_at(1.1, Ipv4Address::of(192, 168, 0, 1), 100)};
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.5,
                                        TimePoint::from_seconds(2.0));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[1].hhhs.total_bytes, 100u);
  EXPECT_EQ(reports[1].hhhs.threshold_bytes, 50u);
  // The window-1 report must be about 192.168.0.1 only.
  for (const auto& item : reports[1].hhhs.items()) {
    EXPECT_TRUE(item.prefix.contains(Ipv4Address::of(192, 168, 0, 1)))
        << item.prefix.to_string();
    EXPECT_LE(item.total_bytes, 100u);
  }
}

TEST(DisjointWindowBoundary, SinglePacketWindowReportsWholeAncestry) {
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 42)};
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 1.0,
                                        TimePoint::from_seconds(1.0));
  ASSERT_EQ(reports.size(), 1u);
  const auto& set = reports[0].hhhs;
  EXPECT_EQ(set.total_bytes, 42u);
  // With one packet, exactly the packet's leaf is an HHH (its ancestors'
  // conditioned counts are discounted to zero by the leaf).
  EXPECT_TRUE(harness::hhh_set_covers(set, {Ipv4Prefix(kSrc, 32)}));
  EXPECT_EQ(set.size(), 1u) << set.to_string();
}

TEST(DisjointWindowBoundary, PhiOfOneRequiresTheWholeWindowVolume) {
  // phi = 1.0 -> T = total: only a prefix carrying EVERY byte qualifies.
  const std::vector<PacketRecord> packets = {
      packet_at(0.2, Ipv4Address::of(10, 0, 0, 1), 500),
      packet_at(0.4, Ipv4Address::of(10, 0, 0, 2), 500)};
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 1.0,
                                        TimePoint::from_seconds(1.0));
  ASSERT_EQ(reports.size(), 1u);
  const auto& set = reports[0].hhhs;
  EXPECT_EQ(set.threshold_bytes, 1000u);
  // Neither host qualifies alone; the /24 (and nothing below it) does.
  EXPECT_TRUE(harness::hhh_set_covers(set, {*Ipv4Prefix::parse("10.0.0.0/24")}));
  for (const auto& item : set.items()) {
    EXPECT_GE(item.conditioned_bytes, 1000u) << item.prefix.to_string();
  }
}

TEST(DisjointWindowBoundary, RejectsInvalidParams) {
  const TimePoint end = TimePoint::from_seconds(1.0);
  EXPECT_THROW(pipeline::make_disjoint_policy(Duration::seconds(0)), std::invalid_argument);
  EXPECT_THROW(pipeline_reports({}, Duration::seconds(1), 0.0, end), std::invalid_argument);
  EXPECT_THROW(pipeline_reports({}, Duration::seconds(1), 1.5, end), std::invalid_argument);
  // phi = 1.0 is the inclusive upper edge and must be accepted.
  EXPECT_NO_THROW(pipeline_reports({}, Duration::seconds(1), 1.0, end));
}

TEST(DisjointWindowBoundary, BatchSizeDoesNotChangeReports) {
  // Per-packet reads (batch_size 1) and 4096-packet reads must close the
  // same windows with the same exact HHH sets, including when a read
  // spans several window boundaries and when a packet sits exactly on one
  // — for the exact engine and for a sharded exact front-end, whose
  // worker threads must have ingested a window's packets by its close.
  auto packets =
      harness::TraceBuilder(0x0FF3).compact_space().duration_seconds(5.0).packets(8000);
  packets.push_back(packet_at(5.0, kSrc, 1234));  // exactly on a boundary
  const TimePoint end = TimePoint::from_seconds(6.0);
  const auto single = pipeline_reports(packets, Duration::seconds(1), 0.02, end, 1);
  for (const bool sharded : {false, true}) {
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4096}}) {
      auto engine = sharded ? make_sharded_exact_engine(Hierarchy::byte_granularity(), 4)
                            : make_exact_engine(Hierarchy::byte_granularity());
      const auto actual = harness::disjoint_pipeline_reports(
          packets, Duration::seconds(1), 0.02, end, std::move(engine), batch_size);
      ASSERT_EQ(actual.size(), single.size());
      for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(actual[i].index, single[i].index);
        EXPECT_TRUE(harness::hhh_sets_equal(actual[i].hhhs, single[i].hhhs))
            << "window " << i << " sharded=" << sharded << " batch_size=" << batch_size;
      }
    }
  }
}

TEST(DisjointWindowBoundary, OneBatchReportsIntermediateEmptyWindows) {
  // One read whose packets skip two whole windows: the quiet windows
  // must still be closed and reported, in order, from inside the batch.
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 100),
                                             packet_at(3.5, kSrc, 200)};
  const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.5,
                                        TimePoint::from_seconds(4.0));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].hhhs.total_bytes, 100u);
  EXPECT_EQ(reports[1].hhhs.total_bytes, 0u);
  EXPECT_EQ(reports[2].hhhs.total_bytes, 0u);
  EXPECT_EQ(reports[3].hhhs.total_bytes, 200u);
}

// --- ill-behaved timestamps at boundaries -----------------------------------

TEST(DisjointWindowBoundary, DuplicateTimestampsOnTheBoundaryAllOpenNextWindow) {
  // Several packets carrying the exact boundary timestamp: every one of
  // them belongs to the next window ([W, 2W) is half-open), read one at a
  // time or all in one batch.
  const std::vector<PacketRecord> packets = {
      packet_at(0.5, kSrc, 100),
      packet_at(1.0, kSrc, 200),
      packet_at(1.0, Ipv4Address::of(10, 9, 9, 9), 300),
      packet_at(1.0, kSrc, 400),
  };
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4096}}) {
    const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.5,
                                          TimePoint::from_seconds(2.0), batch_size);
    ASSERT_EQ(reports.size(), 2u) << "batch_size=" << batch_size;
    EXPECT_EQ(reports[0].hhhs.total_bytes, 100u) << "batch_size=" << batch_size;
    EXPECT_EQ(reports[1].hhhs.total_bytes, 900u) << "batch_size=" << batch_size;
  }
}

TEST(DisjointWindowBoundary, OutOfOrderPacketLandsInTheOpenWindowNotItsOwn) {
  // A straggler whose timestamp points into the already-closed window 0
  // arrives after window 1 opened: it is accounted in the OPEN window
  // (closed reports are immutable), whatever the batch size.
  const std::vector<PacketRecord> packets = {
      packet_at(0.5, kSrc, 100),
      packet_at(1.2, kSrc, 200),
      packet_at(0.9, Ipv4Address::of(10, 9, 9, 9), 300),  // late straggler
      packet_at(1.4, kSrc, 400),
  };
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4096}}) {
    const auto reports = pipeline_reports(packets, Duration::seconds(1), 0.5,
                                          TimePoint::from_seconds(2.0), batch_size);
    ASSERT_EQ(reports.size(), 2u) << "batch_size=" << batch_size;
    EXPECT_EQ(reports[0].hhhs.total_bytes, 100u) << "window 0 stays closed";
    EXPECT_EQ(reports[1].hhhs.total_bytes, 900u) << "straggler counted here";
  }
}

TEST(DisjointWindowBoundary, OutOfOrderWithinTheOpenWindowIsOrderInsensitive) {
  // Reordering *inside* one window must not change the exact report: the
  // engine is a counter, not a sequence. Shuffle only within window 0.
  const std::vector<PacketRecord> ordered = {
      packet_at(0.1, kSrc, 100),
      packet_at(0.3, Ipv4Address::of(10, 9, 9, 9), 200),
      packet_at(0.7, kSrc, 300),
  };
  const std::vector<PacketRecord> shuffled = {ordered[2], ordered[0], ordered[1]};
  const TimePoint end = TimePoint::from_seconds(1.0);
  const auto a = pipeline_reports(ordered, Duration::seconds(1), 0.2, end, 1);
  const auto b = pipeline_reports(shuffled, Duration::seconds(1), 0.2, end, 1);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(harness::hhh_sets_equal(a[0].hhhs, b[0].hhhs));
}

// --- exact sliding summary through the pipeline ----------------------------

/// Exact sliding reports of `packets` (step 1 s) through the pipeline.
std::vector<WindowReport> sliding_reports(std::span<const PacketRecord> packets,
                                          Duration window, double phi, TimePoint end,
                                          std::size_t batch_size = 4096) {
  return harness::sliding_pipeline_reports(
      packets, {.window = window, .step = Duration::seconds(1)}, phi, end, batch_size);
}

TEST(SlidingWindowBoundary, DuplicateTimestampsOnAStepBoundary) {
  // Packets at exactly t = step close the step first: the step report
  // covering [t-W, t) excludes them; they surface in the next step.
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 100),
                                             packet_at(1.0, kSrc, 200),
                                             packet_at(1.0, Ipv4Address::of(10, 9, 9, 9), 300)};
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4096}}) {
    const auto reports =
        sliding_reports(packets, Duration::seconds(1), 0.5, TimePoint::from_seconds(2.0), batch);
    ASSERT_EQ(reports.size(), 2u) << "batch " << batch;
    EXPECT_EQ(reports[0].hhhs.total_bytes, 100u) << "batch " << batch;
    EXPECT_EQ(reports[1].hhhs.total_bytes, 500u) << "batch " << batch;
  }
}

TEST(SlidingWindowBoundary, OutOfOrderStragglerStaysInTheCurrentBucket) {
  // A late packet (timestamp in an older step) is counted with the step
  // that is open on arrival, so it also *expires* with that step — the
  // window's counters never go negative and totals stay conserved.
  const std::vector<PacketRecord> packets = {
      packet_at(0.5, kSrc, 100), packet_at(1.5, kSrc, 200),
      packet_at(0.8, Ipv4Address::of(10, 9, 9, 9), 400)};  // straggler
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4096}}) {
    const auto reports =
        sliding_reports(packets, Duration::seconds(2), 0.5, TimePoint::from_seconds(5.0), batch);
    // Reports at t=2,3,4,5. [0,2) sees all 700; [1,3) drops the first
    // step's 100 but keeps the straggler (counted at arrival, step 1);
    // [2,4) and later are empty.
    ASSERT_EQ(reports.size(), 4u) << "batch " << batch;
    EXPECT_EQ(reports[0].hhhs.total_bytes, 700u) << "batch " << batch;
    EXPECT_EQ(reports[1].hhhs.total_bytes, 600u) << "batch " << batch;
    EXPECT_EQ(reports[2].hhhs.total_bytes, 0u) << "batch " << batch;
    EXPECT_EQ(reports[3].hhhs.total_bytes, 0u) << "batch " << batch;
  }
}

TEST(SlidingWindowBoundary, EmptyStepsStillReport) {
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 100)};
  const auto reports =
      sliding_reports(packets, Duration::seconds(2), 0.05, TimePoint::from_seconds(5.0));
  // Full windows only: first report at t = 2 (covering [0,2)); steps at
  // t = 3, 4, 5 cover silent history.
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].hhhs.total_bytes, 100u);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].hhhs.total_bytes, 0u) << "step " << i;
    EXPECT_TRUE(reports[i].hhhs.empty()) << "step " << i;
  }
}

TEST(SlidingWindowBoundary, PacketLeavesExactlyWhenWindowPasses) {
  // Window 2 s, step 1 s. A packet at t = 0.5 is inside the window ending
  // at 2.0 (covers [0,2)) but outside the one ending at 3.0 ([1,3)).
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 100)};
  const auto reports =
      sliding_reports(packets, Duration::seconds(2), 0.5, TimePoint::from_seconds(3.0));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].hhhs.total_bytes, 100u);
  EXPECT_EQ(reports[1].hhhs.total_bytes, 0u);
}

TEST(SlidingWindowBoundary, SinglePacketWindowAtPhiOne) {
  const std::vector<PacketRecord> packets = {packet_at(0.5, kSrc, 77)};
  const auto reports =
      sliding_reports(packets, Duration::seconds(1), 1.0, TimePoint::from_seconds(1.0));
  ASSERT_EQ(reports.size(), 1u);
  const auto& set = reports[0].hhhs;
  EXPECT_EQ(set.total_bytes, 77u);
  EXPECT_EQ(set.threshold_bytes, 77u);
  EXPECT_TRUE(harness::hhh_set_covers(set, {Ipv4Prefix(kSrc, 32)}));
}

TEST(SlidingWindowBoundary, FirstFullWindowMatchesDisjointFirstWindow) {
  // With step == window the sliding model degenerates to disjoint
  // tiling; both must produce identical exact HHH sets per window.
  const auto packets =
      harness::TraceBuilder(0x81D6E).compact_space().duration_seconds(4.0).packets(6000);
  const TimePoint end = TimePoint::from_seconds(4.0);
  const auto sliding = sliding_reports(packets, Duration::seconds(1), 0.02, end);
  const auto disjoint = pipeline_reports(packets, Duration::seconds(1), 0.02, end);
  ASSERT_EQ(disjoint.size(), sliding.size());
  for (std::size_t i = 0; i < disjoint.size(); ++i) {
    EXPECT_EQ(disjoint[i].end, sliding[i].end) << "window " << i;
    EXPECT_TRUE(harness::hhh_sets_equal(disjoint[i].hhhs, sliding[i].hhhs)) << "window " << i;
  }
}

}  // namespace
}  // namespace hhh
