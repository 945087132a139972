// Engine-conformance suite: every HhhEngine implementation must satisfy
// the same behavioural contract, because the disjoint-window driver (and
// anything else that swaps engines) relies on it.
//
// The engine list lives in tests/harness/engine_registry.cpp — a new
// engine registers there in one line and inherits this whole suite.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/memento_hhh.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/pipeline_axis.hpp"
#include "harness/trace_builder.hpp"
#include "trace/synthetic_trace.hpp"
#include "wire/snapshot.hpp"

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

TEST_P(EngineConformance, TotalBytesCountsOnlyItsOwnFamily) {
  // Packets of the other family are ignored (HhhEngine::family), in mixed
  // batches and in single-family batches of either family alike.
  auto e = engine();
  const auto packets = harness::TraceBuilder(10).compact_space().v6_fraction(0.5).packets(20000);
  const std::span<const PacketRecord> all(packets);
  for (std::size_t i = 0; i < all.size(); i += 4096) {
    e->add_batch(all.subspan(i, std::min<std::size_t>(4096, all.size() - i)));
  }
  for (std::size_t i = 0; i < 100; ++i) e->add(packets[i]);
  std::uint64_t own = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].family() != hierarchy().family()) continue;
    own += packets[i].ip_len * (i < 100 ? 2u : 1u);
  }
  EXPECT_EQ(e->family(), hierarchy().family());
  EXPECT_EQ(e->total_bytes(), own);
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

// ------------------------------------------------ segmentation invariance

/// A summary under the segmentation check: every registry engine, plus
/// the summaries outside the registry.
struct SegmentationCase {
  std::string name;
  std::function<std::unique_ptr<HhhSummary>()> make;
  double v6_fraction = 0.0;
  /// Hierarchy levels the ingest draws one of per packet (RHHH's and
  /// Memento's sampler), so the state depends on how the stream is cut
  /// into batches; 0 = ingest draws no random numbers.
  std::size_t sampled_levels = 0;
};

/// Registry engines that draw a level per packet. The sharded RHHH engine
/// is not one of them: it restages every packet into fixed-size shard
/// batches, so its replicas draw the same levels under any cut.
std::size_t drawn_levels(const harness::EngineCase& c) {
  return c.name == "rhhh" || c.name == "rhhh_v6" ? c.hierarchy.levels() : 0;
}

const std::vector<SegmentationCase>& segmentation_cases() {
  static const std::vector<SegmentationCase> cases = [] {
    std::vector<SegmentationCase> out;
    for (const auto& c : conformance_engines()) {
      out.push_back({c.name, [make = c.make] { return std::unique_ptr<HhhSummary>(make()); },
                     c.v6_fraction, drawn_levels(c)});
    }
    out.push_back({"tdbf", [] {
                     return std::make_unique<TimeDecayingHhhDetector>(
                         TimeDecayingHhhDetector::for_window(Duration::seconds(1)));
                   }});
    out.push_back({"exact_sliding", [] {
                     return make_exact_sliding_summary(
                         {.window = Duration::seconds(1), .step = Duration::millis(250)});
                   }});
    out.push_back({"exact_sliding_v6",
                   [] {
                     return make_exact_sliding_summary(
                         {.window = Duration::seconds(1),
                          .step = Duration::millis(250),
                          .hierarchy = Hierarchy::v6_byte_granularity()});
                   },
                   /*v6_fraction=*/1.0});
    out.push_back({"memento",
                   [] {
                     return std::make_unique<MementoHhhDetector>(
                         MementoHhhParams{.window = Duration::seconds(1)});
                   },
                   /*v6_fraction=*/0.0, Hierarchy::byte_granularity().levels()});
    return out;
  }();
  return cases;
}

class SegmentationInvariance : public ::testing::TestWithParam<std::size_t> {
 protected:
  const SegmentationCase& spec() const { return segmentation_cases()[GetParam()]; }

  /// A fresh summary fed `packets` in runs of `batch` (0 = per-packet
  /// add()).
  std::unique_ptr<HhhSummary> fed(const std::vector<PacketRecord>& packets,
                                  std::size_t batch) const {
    auto s = spec().make();
    if (batch == 0) {
      for (const auto& p : packets) s->add(p);
      return s;
    }
    const std::span<const PacketRecord> all(packets);
    for (std::size_t i = 0; i < all.size(); i += batch) {
      s->add_batch(all.subspan(i, std::min(batch, all.size() - i)));
    }
    return s;
  }
};

/// Three standard deviations of the difference between two sampled
/// realizations of `prefix`'s conditioned estimate. RHHH and Memento draw
/// one of H levels uniformly per packet and scale the drawn level's count
/// by H, so the conditioned estimate of a reported prefix p is
///   C_p = sum over packets i in p of H * w_i * (1[l_i = l_p] - 1[l_i = l_d(i)]),
/// where w_i is the packet's bytes and d(i) the closest reported
/// descendant of p holding packet i (no second term when there is none).
/// Each term is unbiased (its mean is w_i, or 0 inside a reported
/// descendant) with variance at most 2H * w_i^2, so two independently
/// drawn feeds that select the same descendants differ by a standard
/// deviation of at most 2 * sqrt(H * sum_{i in p} w_i^2).
/// This counts sampling error only: on the conformance workload every
/// level that holds a reported prefix has at most 160 distinct keys,
/// fewer than the summaries' 512 counters, so Space-Saving adds none.
double sampling_margin(const std::vector<PacketRecord>& packets, PrefixKey prefix,
                       std::size_t levels) {
  double square_sum = 0.0;
  for (const auto& p : packets) {
    if (!prefix.contains(p.src())) continue;
    square_sum += static_cast<double>(p.ip_len) * static_cast<double>(p.ip_len);
  }
  return 3.0 * 2.0 * std::sqrt(static_cast<double>(levels) * square_sum);
}

TEST_P(SegmentationInvariance, ReportsDoNotDependOnBatchCuts) {
  // Summaries whose ingest draws no random numbers report byte-identically
  // (and serialize to identical frames) however the stream is cut into
  // batches. Sampled summaries draw different levels per cut; they must
  // still agree on totals and surface the same heavy prefixes.
  const auto packets = harness::TraceBuilder(9)
                           .compact_space()
                           .v6_fraction(spec().v6_fraction)
                           .packets(20000);
  const TimePoint now = packets.back().ts;
  auto per_packet = fed(packets, 0);
  for (const std::size_t batch : {7ul, 4096ul}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    auto batched = fed(packets, batch);
    EXPECT_EQ(batched->total(now), per_packet->total(now));
    if (spec().sampled_levels > 0) {
      // Every prefix the per-packet feed reports clear of the threshold by
      // more than the sampling margin, the batched feed reports too.
      const auto loop_set = per_packet->report(now, 0.1);
      std::vector<PrefixKey> clear;
      for (const auto& item : loop_set.items()) {
        const double slack = static_cast<double>(item.conditioned_bytes) -
                             static_cast<double>(loop_set.threshold_bytes);
        if (slack >= sampling_margin(packets, item.prefix, spec().sampled_levels)) {
          clear.push_back(item.prefix);
        }
      }
      EXPECT_FALSE(clear.empty());
      EXPECT_TRUE(harness::hhh_set_covers(batched->report(now, 0.1), clear));
      continue;
    }
    for (const double phi : {0.02, 0.1}) {
      EXPECT_TRUE(harness::hhh_sets_equal(per_packet->report(now, phi),
                                          batched->report(now, phi)))
          << "phi=" << phi;
    }
    if (per_packet->serializable()) {
      EXPECT_EQ(wire::save_engine(*per_packet), wire::save_engine(*batched));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSummaries, SegmentationInvariance,
                         ::testing::Range<std::size_t>(0, segmentation_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return segmentation_cases()[info.param].name;
                         });

}  // namespace
}  // namespace hhh
