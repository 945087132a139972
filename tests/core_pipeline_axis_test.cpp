// Pipeline-equivalence conformance: every registry engine, run through
// the streaming pipeline runtime, must report byte-identically to a
// hand-written extract-and-reset reference loop. See
// tests/harness/pipeline_axis.hpp for the contract.
#include <gtest/gtest.h>

#include "harness/engine_registry.hpp"
#include "harness/pipeline_axis.hpp"

namespace hhh {
namespace {

using harness::conformance_engines;

class PipelineAxis : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineAxis, PipelineReportsMatchReferenceLoopByteForByte) {
  harness::run_pipeline_equivalence_case(conformance_engines()[GetParam()]);
}

TEST_P(PipelineAxis, PerWindowSnapshotFramesReextractTheReport) {
  harness::run_pipeline_snapshot_case(conformance_engines()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PipelineAxis,
                         ::testing::Range<std::size_t>(0, conformance_engines().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return harness::conformance_engine_name(info.param);
                         });

}  // namespace
}  // namespace hhh
