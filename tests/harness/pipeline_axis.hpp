// The pipeline-equivalence conformance axis.
//
// Every engine in the conformance registry automatically inherits this
// sweep (tests/core_pipeline_axis_test.cpp instantiates it over the
// registry): running the engine inside the streaming pipeline runtime
// (pipeline/pipeline.hpp: span source -> engine stage -> disjoint policy
// -> collect sink) must produce window reports byte-identical to a
// reference loop written from first principles — one engine, window k is
// [kW, (k+1)W) by integer division, chunks are the intersection of the
// batch grid and the window grid, and each boundary is extract(phi) then
// reset() — indexes, spans, HHH items, volumes, everything. The reference
// does not use WindowPolicy, so the pipeline's schedule is checked
// against an independent oracle; randomized engines stay byte-identical
// because both sides make the same add_batch calls.
//
// disjoint_pipeline_reports() is also how the window-model tests run the
// Fig. 1a model.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/hhh_types.hpp"
#include "harness/engine_registry.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace hhh::harness {

/// The Fig. 1a model through the pipeline runtime: `engine` (nullptr =
/// the exact engine over Hierarchy::byte_granularity()) behind the
/// disjoint policy of length `window`, reading `packets` `batch_size` at a
/// time, closing every window that ends by `end`. Returns every report in
/// order.
std::vector<WindowReport> disjoint_pipeline_reports(std::span<const PacketRecord> packets,
                                                    Duration window, double phi,
                                                    TimePoint end,
                                                    std::unique_ptr<HhhEngine> engine = nullptr,
                                                    std::size_t batch_size = 4096);

/// Run the pipeline-vs-reference equivalence sweep for one registry
/// engine: identical streams, identical chunking, byte-identical reports
/// required (randomized engines included).
void run_pipeline_equivalence_case(const EngineCase& engine_case);

/// The pipeline's snapshot sink against the legacy save_engine path: for
/// serializable registry engines, the frame the snapshot-stream sink
/// emits at a window close must decode into an engine whose extract
/// matches the report the sink saw.
void run_pipeline_snapshot_case(const EngineCase& engine_case);

}  // namespace hhh::harness
