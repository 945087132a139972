// Snapshot-conformance suite: every engine in the conformance registry,
// plus the two Memento sliding detectors, automatically gets the
// serialize→deserialize→report golden-diff sweep and the
// collector-equivalence check. The per-summary logic lives in
// tests/harness/snapshot_axis.cpp — registering an engine in
// tests/harness/engine_registry.cpp is all a new engine needs to do.
#include <gtest/gtest.h>

#include "harness/snapshot_axis.hpp"

namespace hhh {
namespace {

using harness::snapshot_cases;

class SummarySnapshotConformance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SummarySnapshotConformance, RoundTripPreservesReportAndBehaviour) {
  harness::run_snapshot_roundtrip_case(snapshot_cases()[GetParam()]);
}

TEST_P(SummarySnapshotConformance, WireMergeEqualsInProcessMerge) {
  harness::run_snapshot_merge_case(snapshot_cases()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(AllSummaries, SummarySnapshotConformance,
                         ::testing::Range<std::size_t>(0, snapshot_cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return snapshot_cases()[info.param].name;
                         });

}  // namespace
}  // namespace hhh
