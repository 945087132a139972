#include "harness/snapshot_axis.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "core/memento_hhh.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"
#include "wire/snapshot.hpp"

namespace hhh::harness {

namespace {

std::vector<PacketRecord> workload(const SummaryCase& summary_case, std::uint64_t seed,
                                   std::size_t n) {
  return TraceBuilder(seed)
      .compact_space()
      .v6_fraction(summary_case.v6_fraction)
      .packets(n);
}

void expect_same_reports(HhhSummary& expected, HhhSummary& actual) {
  const TimePoint at = expected.watermark();
  EXPECT_EQ(at, actual.watermark());
  EXPECT_EQ(expected.total(at), actual.total(at));
  for (const double phi : {0.01, 0.05, 0.2}) {
    EXPECT_TRUE(hhh_sets_equal(expected.report(at, phi), actual.report(at, phi)))
        << "at phi=" << phi;
  }
}

// A 100 ms window over the ~160 ms workloads, so expiry, frame rollover
// and (at 128 counters) eviction all happen before the snapshot.
MementoHhhParams memento_params(const Hierarchy& hierarchy) {
  return MementoHhhParams{.hierarchy = hierarchy,
                          .window = Duration::millis(100),
                          .frames = 8,
                          .counters_per_level = 128};
}

}  // namespace

const std::vector<SummaryCase>& snapshot_cases() {
  static const std::vector<SummaryCase> cases = [] {
    std::vector<SummaryCase> out;
    for (const EngineCase& e : conformance_engines()) {
      out.push_back(SummaryCase{e.name, e.make, e.v6_fraction});
    }
    out.push_back(SummaryCase{
        "memento",
        [] {
          return std::make_unique<MementoHhhDetector>(
              memento_params(Hierarchy::byte_granularity()));
        },
        0.0});
    out.push_back(SummaryCase{
        "memento_v6",
        [] {
          return std::make_unique<MementoHhhV6Detector>(
              memento_params(Hierarchy::v6_byte_granularity()));
        },
        1.0});
    return out;
  }();
  return cases;
}

void run_snapshot_roundtrip_case(const SummaryCase& summary_case) {
  for_each_seed(0x5AFE'0001, 3, [&](std::uint64_t seed) {
    const auto packets = workload(summary_case, seed, 8000);
    auto original = summary_case.make();
    original->add_batch(packets);
    ASSERT_TRUE(original->serializable());

    const std::vector<std::uint8_t> frame = wire::save_engine(*original);

    // (1) restore into a fresh identically-configured summary.
    auto restored = summary_case.make();
    wire::load_engine_into(frame, *restored);
    expect_same_reports(*original, *restored);

    // (2) behavioural equivalence under continued ingestion: the snapshot
    // carries RNG state, so both sides must keep agreeing byte-for-byte.
    // The continuation starts where the first stream ended (sliding
    // summaries need non-decreasing timestamps; engines ignore them).
    auto more = workload(summary_case, seed ^ 0xDEAD'BEEF, 4000);
    for (auto& p : more) p.ts = p.ts + (packets.back().ts - TimePoint());
    original->add_batch(more);
    restored->add_batch(more);
    expect_same_reports(*original, *restored);

    // (3) standalone construction from the payload's own params, where
    // the kind supports it (sharded engines need their factory).
    const std::vector<std::uint8_t> frame2 = wire::save_engine(*original);
    if (wire::engine_snapshot_kind(*original) != wire::SnapshotKind::kShardedEngine) {
      auto standalone = wire::load_engine(frame2);
      expect_same_reports(*original, *standalone);
    }
  });
}

void run_snapshot_merge_case(const SummaryCase& summary_case) {
  {
    const auto probe = summary_case.make();
    const auto* engine = dynamic_cast<const HhhEngine*>(probe.get());
    if (engine != nullptr && !engine->mergeable()) {
      GTEST_SKIP() << "engine is not mergeable";
    }
  }
  for_each_seed(0x5AFE'0002, 2, [&](std::uint64_t seed) {
    const auto stream_a = workload(summary_case, seed, 6000);
    const auto stream_b = workload(summary_case, seed ^ 0xF00D, 6000);

    // In-process reference: merge_from between live summaries.
    auto ref_a = summary_case.make();
    auto ref_b = summary_case.make();
    ref_a->add_batch(stream_a);
    ref_b->add_batch(stream_b);
    ref_a->merge_from(*ref_b);

    // Collector path: both sides cross the wire first.
    auto wire_a = summary_case.make();
    auto wire_b = summary_case.make();
    {
      auto live_a = summary_case.make();
      auto live_b = summary_case.make();
      live_a->add_batch(stream_a);
      live_b->add_batch(stream_b);
      wire::load_engine_into(wire::save_engine(*live_a), *wire_a);
      wire::load_engine_into(wire::save_engine(*live_b), *wire_b);
    }
    wire_a->merge_from(*wire_b);

    expect_same_reports(*ref_a, *wire_a);
  });
}

}  // namespace hhh::harness
