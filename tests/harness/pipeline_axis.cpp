#include "harness/pipeline_axis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/snapshot_stream.hpp"
#include "wire/snapshot.hpp"

namespace hhh::harness {

namespace {

constexpr double kPhi = 0.02;
constexpr std::size_t kBatch = 4096;
// The conformance workload runs at 50 kpps, so 20 k packets span ~0.4 s:
// 100 ms windows give several boundaries per sweep.
const Duration kWindow = Duration::millis(100);

std::vector<PacketRecord> workload(const EngineCase& engine_case, std::uint64_t seed,
                                   std::size_t n) {
  return TraceBuilder(seed).compact_space().v6_fraction(engine_case.v6_fraction).packets(n);
}

/// The reference: one engine driven by hand, without WindowPolicy.
std::vector<WindowReport> run_reference(const EngineCase& engine_case,
                                        std::span<const PacketRecord> packets,
                                        TimePoint end) {
  const auto window_of = [](TimePoint t) { return t.ns() / kWindow.ns(); };
  auto engine = engine_case.make();
  std::vector<WindowReport> reports;
  std::int64_t open = 0;  // the window currently accumulating
  const auto close_before = [&](std::int64_t k) {
    for (; open < k; ++open) {
      WindowReport report;
      report.index = static_cast<std::size_t>(open);
      report.start = TimePoint() + kWindow * open;
      report.end = report.start + kWindow;
      report.hhhs = engine->extract(kPhi);
      engine->reset();
      reports.push_back(std::move(report));
    }
  };
  for (std::size_t b = 0; b < packets.size(); b += kBatch) {
    const auto batch = packets.subspan(b, std::min(kBatch, packets.size() - b));
    std::size_t i = 0;
    while (i < batch.size()) {
      close_before(window_of(batch[i].ts));
      std::size_t j = i + 1;
      while (j < batch.size() && window_of(batch[j].ts) <= open) ++j;
      engine->add_batch(batch.subspan(i, j - i));
      i = j;
    }
  }
  close_before(window_of(end));
  return reports;
}

void expect_reports_identical(const std::vector<WindowReport>& expected,
                              const std::vector<WindowReport>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].index, actual[i].index) << "window " << i;
    EXPECT_EQ(expected[i].start, actual[i].start) << "window " << i;
    EXPECT_EQ(expected[i].end, actual[i].end) << "window " << i;
    EXPECT_TRUE(hhh_sets_equal(expected[i].hhhs, actual[i].hhhs)) << "window " << i;
  }
}

}  // namespace

std::vector<WindowReport> disjoint_pipeline_reports(std::span<const PacketRecord> packets,
                                                    Duration window, double phi,
                                                    TimePoint end,
                                                    std::unique_ptr<HhhEngine> engine,
                                                    std::size_t batch_size) {
  pipeline::PipelineConfig config;
  config.phi = phi;
  config.batch_size = batch_size;
  config.finish_at = end;
  config.metrics = false;
  if (!engine) engine = make_exact_engine(Hierarchy::byte_granularity());
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(std::move(engine)),
                          pipeline::make_disjoint_policy(window), config);
  auto& collect = pipe.add_sink(std::make_unique<pipeline::CollectSink>());
  pipe.run();
  return collect.reports();
}

std::vector<WindowReport> sliding_pipeline_reports(std::span<const PacketRecord> packets,
                                                   const ExactSlidingParams& params, double phi,
                                                   TimePoint end, std::size_t batch_size,
                                                   bool full_windows_only) {
  pipeline::PipelineConfig config;
  config.phi = phi;
  config.batch_size = batch_size;
  config.finish_at = end;
  config.metrics = false;
  pipeline::Pipeline pipe(
      pipeline::make_span_source(packets),
      pipeline::make_engine_stage(make_exact_sliding_summary(params)),
      pipeline::make_sliding_policy(params.window, params.step, full_windows_only), config);
  auto& collect = pipe.add_sink(std::make_unique<pipeline::CollectSink>());
  pipe.run();
  return collect.reports();
}

void run_pipeline_equivalence_case(const EngineCase& engine_case) {
  for (const std::uint64_t seed : {11u, 23u}) {
    const auto packets = workload(engine_case, seed, 20000);
    ASSERT_FALSE(packets.empty());
    const TimePoint end = packets.back().ts + kWindow;
    const auto expected = run_reference(engine_case, packets, end);
    const auto actual =
        disjoint_pipeline_reports(packets, kWindow, kPhi, end, engine_case.make(), kBatch);
    ASSERT_GE(expected.size(), 2u) << "workload too short to cross a boundary";
    expect_reports_identical(expected, actual);
  }
}

void run_pipeline_snapshot_case(const EngineCase& engine_case) {
  {
    // Sharded engines are NOT skipped: the engine stage folds their
    // replicas into a mergeable inner-engine frame at snapshot time, so
    // pipeline frames always decode standalone.
    auto probe = engine_case.make();
    if (!probe->serializable()) {
      GTEST_SKIP() << probe->name() << " is not serializable";
    }
  }
  const auto packets = workload(engine_case, 31, 20000);
  const TimePoint end = packets.back().ts + kWindow;

  pipeline::PipelineConfig config;
  config.phi = kPhi;
  config.batch_size = kBatch;
  config.finish_at = end;
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(engine_case.make()),
                          pipeline::make_disjoint_policy(kWindow), config);
  auto& collect = pipe.add_sink(std::make_unique<pipeline::CollectSink>());

  // Capture the per-window frame stream in memory via a temp file-less
  // sink: collect frames with a callback around the context.
  std::vector<std::vector<std::uint8_t>> frames;
  class FrameGrab final : public pipeline::ReportSink {
   public:
    explicit FrameGrab(std::vector<std::vector<std::uint8_t>>& frames) : frames_(frames) {}
    void on_window(const WindowReport&, pipeline::SinkContext& ctx) override {
      frames_.push_back(ctx.snapshot());
    }

   private:
    std::vector<std::vector<std::uint8_t>>& frames_;
  };
  pipe.add_sink(std::make_unique<FrameGrab>(frames));
  pipe.run();

  ASSERT_EQ(frames.size(), collect.reports().size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Each frame decodes standalone and re-extracts the window's report —
    // the collector-side invariant of per-window vantage streaming.
    auto summary = wire::load_engine(frames[i]);
    EXPECT_EQ(static_cast<std::uint64_t>(summary->total(TimePoint())),
              collect.reports()[i].hhhs.total_bytes);
    EXPECT_TRUE(hhh_sets_equal(collect.reports()[i].hhhs, summary->report(TimePoint(), kPhi)))
        << "window " << i;
  }
}

}  // namespace hhh::harness
