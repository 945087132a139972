// Engine-conformance suite: every HhhEngine implementation must satisfy
// the same behavioural contract, because the disjoint-window driver (and
// anything else that swaps engines) relies on it.
//
// The engine list lives in tests/harness/engine_registry.cpp — a new
// engine registers there in one line and inherits this whole suite.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>

#include "core/engine.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/trace_builder.hpp"
#include "trace/synthetic_trace.hpp"

namespace hhh {
namespace {

using harness::conformance_engines;

class EngineConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::unique_ptr<HhhEngine> engine() const { return conformance_engines()[GetParam()].make(); }

  const std::string& engine_name() const { return conformance_engines()[GetParam()].name; }

  std::vector<PacketRecord> workload(std::uint64_t seed, std::size_t n) const {
    return harness::TraceBuilder(seed)
        .compact_space()
        .v6_fraction(conformance_engines()[GetParam()].v6_fraction)
        .packets(n);
  }

  /// The hierarchy the engine under test is configured with.
  const Hierarchy& hierarchy() const { return conformance_engines()[GetParam()].hierarchy; }

  /// A fixed host address of the engine's family (driver smoke test).
  IpAddress lone_source() const {
    const Ipv4Address v4 = Ipv4Address::of(10, 0, 0, 1);
    return hierarchy().family() == AddressFamily::kIpv4 ? IpAddress(v4) : v6_embed(v4);
  }
};

TEST_P(EngineConformance, TotalBytesIsExact) {
  auto e = engine();
  const auto packets = workload(1, 5000);
  for (const auto& p : packets) e->add(p);
  EXPECT_EQ(e->total_bytes(), harness::byte_sum(packets));
}

TEST_P(EngineConformance, ResetForgetsEverything) {
  auto e = engine();
  for (const auto& p : workload(2, 5000)) e->add(p);
  e->reset();
  EXPECT_EQ(e->total_bytes(), 0u);
  EXPECT_TRUE(e->extract(0.01).empty());
}

TEST_P(EngineConformance, ExtractRespectsThresholdArithmetic) {
  auto e = engine();
  for (const auto& p : workload(3, 20000)) e->add(p);
  const auto set = e->extract(0.05);
  EXPECT_EQ(set.total_bytes, e->total_bytes());
  EXPECT_GE(set.threshold_bytes,
            static_cast<std::uint64_t>(0.05 * static_cast<double>(e->total_bytes())));
  for (const auto& item : set.items()) {
    // Every reported conditioned volume crossed the threshold, and no item
    // conditions above its own total estimate.
    EXPECT_GE(item.conditioned_bytes, set.threshold_bytes) << item.prefix.to_string();
    // Count-sketch-backed engines report unbiased (not monotone) totals;
    // allow small estimation noise between the two numbers.
    EXPECT_LE(item.conditioned_bytes,
              item.total_bytes + item.total_bytes / 8 + 2)
        << item.prefix.to_string();
  }
}

TEST_P(EngineConformance, ReportedPrefixesAreAtHierarchyLevels) {
  auto e = engine();
  for (const auto& p : workload(4, 20000)) e->add(p);
  // NB: extract() returns by value; items() is a reference into it. Keep
  // the set alive for the whole loop (range-for does NOT extend the
  // temporary through a member call in C++20 — the conformance suite
  // itself tripped on this once).
  const auto set = e->extract(0.02);
  for (const auto& item : set.items()) {
    EXPECT_NE(hierarchy().level_of(item.prefix), Hierarchy::npos)
        << item.prefix.to_string() << " is not a hierarchy level";
  }
}

TEST_P(EngineConformance, NoDuplicatePrefixesInOneReport) {
  auto e = engine();
  for (const auto& p : workload(5, 20000)) e->add(p);
  const auto set = e->extract(0.01);
  std::set<PrefixKey> seen;
  for (const auto& item : set.items()) {
    EXPECT_TRUE(seen.insert(item.prefix).second)
        << "duplicate " << item.prefix.to_string();
  }
}

TEST_P(EngineConformance, ConditionedSumBoundedByTotalTraffic) {
  // The conditioned counts partition (a subset of) the traffic under the
  // discounting definition: their sum must not exceed the stream total by
  // more than estimation error (exact engines: never).
  auto e = engine();
  for (const auto& p : workload(6, 20000)) e->add(p);
  const auto set = e->extract(0.02);
  std::uint64_t sum = 0;
  for (const auto& item : set.items()) sum += item.conditioned_bytes;
  // Allow approximate engines 30% slack (overestimates), exact none.
  EXPECT_LE(sum, e->total_bytes() + e->total_bytes() * 3 / 10);
}

TEST_P(EngineConformance, MemoryReportedNonZeroAfterTraffic) {
  auto e = engine();
  for (const auto& p : workload(7, 2000)) e->add(p);
  EXPECT_GT(e->memory_bytes(), 0u);
  EXPECT_FALSE(e->name().empty());
}

TEST_P(EngineConformance, AddBatchCountsEveryByte) {
  // add_batch must account exactly the bytes handed to it, across uneven
  // chunk sizes, the empty span, and single-packet batches.
  auto e = engine();
  const auto packets = workload(8, 20000);
  const std::span<const PacketRecord> all(packets);
  e->add_batch(all.subspan(0, 0));  // empty batch is a no-op
  EXPECT_EQ(e->total_bytes(), 0u);
  std::size_t i = 0;
  for (const std::size_t chunk : {1ul, 7ul, 4096ul, 1000000ul}) {
    const std::size_t n = std::min(chunk, all.size() - i);
    e->add_batch(all.subspan(i, n));
    i += n;
  }
  ASSERT_EQ(i, all.size());
  EXPECT_EQ(e->total_bytes(), harness::byte_sum(packets));
}

TEST_P(EngineConformance, AddBatchMatchesAddLoop) {
  // Feeding the same stream through add() and add_batch() must be
  // observationally equivalent. Engines whose batch path replays add()
  // verbatim (or commutes exactly, like the exact trie) must produce the
  // *identical* HHH set; randomized/batch-reordered engines (rhhh draws
  // levels differently, hss reorders Space-Saving updates) still must
  // agree on totals and report conformant sets.
  const auto packets = workload(9, 20000);
  auto loop_engine = engine();
  for (const auto& p : packets) loop_engine->add(p);
  auto batch_engine = engine();
  const std::span<const PacketRecord> all(packets);
  for (std::size_t i = 0; i < all.size(); i += 4096) {
    batch_engine->add_batch(all.subspan(i, std::min<std::size_t>(4096, all.size() - i)));
  }
  EXPECT_EQ(batch_engine->total_bytes(), loop_engine->total_bytes());

  const bool deterministic_batch =
      engine_name() == "exact" || engine_name() == "ancestry" || engine_name() == "univmon";
  if (deterministic_batch) {
    EXPECT_TRUE(harness::hhh_sets_equal(loop_engine->extract(0.02),
                                        batch_engine->extract(0.02)));
  } else {
    // Same distribution, different draws: the heaviest prefixes must still
    // surface. Compare at a coarse threshold where both are reliable.
    const auto loop_set = loop_engine->extract(0.1);
    const auto batch_set = batch_engine->extract(0.1);
    EXPECT_TRUE(harness::hhh_set_covers(batch_set, loop_set.prefixes()))
        << "batch ingestion lost heavy prefixes the add() loop finds";
  }
}

TEST_P(EngineConformance, WorksInsideTheDisjointPipeline) {
  std::vector<PacketRecord> packets;
  PacketRecord p;
  p.set_src(lone_source());
  p.ip_len = 1000;
  for (int t = 0; t < 4; ++t) {
    p.ts = TimePoint::from_seconds(t + 0.5);
    packets.push_back(p);
  }
  const auto reports = harness::disjoint_pipeline_reports(
      packets, Duration::seconds(1), 0.5, TimePoint::from_seconds(4.0),
      conformance_engines()[GetParam()].make());
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.hhhs.total_bytes, 1000u) << "window " << r.index;
    // Every engine must report the lone source at SOME level (the
    // randomized RHHH with a single packet per window only learns the one
    // level it sampled, so the leaf itself is not guaranteed).
    bool found = false;
    for (const auto& item : r.hhhs.items()) {
      found |= item.prefix.contains(lone_source());
    }
    EXPECT_TRUE(found) << "window " << r.index;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConformance,
                         ::testing::Range<std::size_t>(0, conformance_engines().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return harness::conformance_engine_name(info.param);
                         });

}  // namespace
}  // namespace hhh
