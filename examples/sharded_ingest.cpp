// Sharded ingestion: the same pipeline, N worker threads, identical answers.
//
//  1. Generate a synthetic trace.
//  2. Run the pipeline runtime twice over it — a direct single-threaded
//     exact stage, then the same stage behind a 4-way shard router
//     (hash-partitioned streams, private replicas, merged at every
//     window close).
//  3. Verify the reports agree window-for-window and compare throughput.
//
// Build & run:   ./build/examples/sharded_ingest
#include <chrono>
#include <cstdio>

#include "core/exact_engine.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/strings.hpp"

using namespace hhh;

namespace {

struct Run {
  std::vector<WindowReport> reports;
  double seconds = 0.0;
};

Run run_pipeline(const std::vector<PacketRecord>& packets, std::size_t shards) {
  pipeline::ShardPlan plan;
  plan.shards = shards;
  auto engine = pipeline::route_shards(
      plan, [](std::size_t) { return make_exact_engine(Hierarchy::byte_granularity()); });

  pipeline::PipelineConfig config;
  config.phi = 0.01;
  config.finish_at = packets.back().ts + Duration::seconds(1);
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(std::move(engine)),
                          pipeline::make_disjoint_policy(Duration::seconds(10)), config);
  auto& collect = pipe.add_sink(std::make_unique<pipeline::CollectSink>());

  const auto t0 = std::chrono::steady_clock::now();
  pipe.run();
  Run result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.reports = collect.reports();
  return result;
}

}  // namespace

int main() {
  const TraceConfig config = TraceConfig::caida_like_day(/*day=*/0, Duration::seconds(60),
                                                         /*background_pps=*/25000.0);
  const std::vector<PacketRecord> packets = SyntheticTraceGenerator(config).generate_all();
  std::printf("trace: %s packets over %.0f seconds\n", with_thousands(packets.size()).c_str(),
              config.duration.to_seconds());

  const Run single = run_pipeline(packets, 1);
  const Run sharded = run_pipeline(packets, 4);

  std::printf("single-thread exact : %8.0f kpps\n",
              static_cast<double>(packets.size()) / single.seconds / 1e3);
  std::printf("4-shard exact       : %8.0f kpps  (x%.2f)\n",
              static_cast<double>(packets.size()) / sharded.seconds / 1e3,
              single.seconds / sharded.seconds);

  // Exact replicas merge losslessly: every window report must be identical.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < single.reports.size(); ++i) {
    const auto lhs = single.reports[i].hhhs.prefixes();
    const auto rhs = sharded.reports[i].hhhs.prefixes();
    if (lhs != rhs) ++mismatches;
  }
  std::printf("windows: %zu, report mismatches: %zu%s\n", single.reports.size(), mismatches,
              mismatches == 0 ? " (sharded == single-thread, as guaranteed)" : "  <-- BUG");
  return mismatches == 0 ? 0 : 1;
}
