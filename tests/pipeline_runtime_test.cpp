// The pipeline runtime's own contract: policies, sources, sinks, clocks.
//
// Engine-equivalence against a hand-written extract-and-reset loop is
// covered by the conformance pipeline axis (tests/core_pipeline_axis_test.cpp); this
// suite pins the runtime pieces themselves — boundary schedules, source
// adapters, paced replay, snapshot streams, wall-clock windows, and the
// sliding/decaying stage pairings.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>

#include "core/exact_engine.hpp"
#include "core/memento_hhh.hpp"
#include "core/sliding_window.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "net/pcap.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/snapshot_stream.hpp"
#include "trace/trace_io.hpp"
#include "wire/snapshot.hpp"

namespace hhh {
namespace {

using namespace hhh::pipeline;

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / ("hhh_pipeline_test_" + name);
}

// ---------------------------------------------------------------- policies

TEST(WindowPolicyTest, DisjointTilesFromZeroAndResets) {
  auto policy = make_disjoint_policy(Duration::seconds(10));
  EXPECT_TRUE(policy->resets_state());
  EXPECT_EQ(policy->next_boundary(), TimePoint::from_seconds(10.0));
  auto ev = policy->next_event();
  EXPECT_EQ(ev.index, 0u);
  EXPECT_EQ(ev.start, TimePoint());
  EXPECT_EQ(ev.end, TimePoint::from_seconds(10.0));
  policy->advance();
  ev = policy->next_event();
  EXPECT_EQ(ev.index, 1u);
  EXPECT_EQ(ev.start, TimePoint::from_seconds(10.0));
  EXPECT_EQ(ev.end, TimePoint::from_seconds(20.0));
}

TEST(WindowPolicyTest, SlidingFullWindowsOnlyStartsAtFirstFullWindow) {
  auto policy = make_sliding_policy(Duration::seconds(10), Duration::seconds(2));
  EXPECT_FALSE(policy->resets_state());
  // steps_per_window = 5 -> first report is step index 4, ending at 10 s.
  const auto ev = policy->next_event();
  EXPECT_EQ(ev.index, 4u);
  EXPECT_EQ(ev.start, TimePoint());
  EXPECT_EQ(ev.end, TimePoint::from_seconds(10.0));
  policy->advance();
  const auto next = policy->next_event();
  EXPECT_EQ(next.index, 5u);
  EXPECT_EQ(next.start, TimePoint::from_seconds(2.0));
  EXPECT_EQ(next.end, TimePoint::from_seconds(12.0));
}

TEST(WindowPolicyTest, SlidingWithoutFullWindowsStartsAtStepZero) {
  auto policy =
      make_sliding_policy(Duration::seconds(4), Duration::seconds(2), /*full=*/false);
  EXPECT_EQ(policy->next_event().index, 0u);
  EXPECT_EQ(policy->next_event().end, TimePoint::from_seconds(2.0));
}

TEST(WindowPolicyTest, SlidingRejectsNonMultipleStep) {
  EXPECT_THROW(make_sliding_policy(Duration::seconds(10), Duration::seconds(3)),
               std::invalid_argument);
}

TEST(WindowPolicyTest, QueryCadenceCoversAllHistory) {
  auto policy = make_query_cadence_policy(Duration::millis(250));
  policy->advance();
  const auto ev = policy->next_event();
  EXPECT_EQ(ev.index, 1u);
  EXPECT_EQ(ev.start, TimePoint());
  EXPECT_EQ(ev.end, TimePoint::from_seconds(0.5));
  EXPECT_FALSE(policy->resets_state());
}

// ----------------------------------------------------------------- sources

TEST(PacketSourceTest, SpanSourceStreamsInOrder) {
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 100, 5);
  auto source = make_span_source(packets);
  std::size_t n = 0;
  while (auto p = source->next()) {
    EXPECT_EQ(p->ts, packets[n].ts);
    ++n;
  }
  EXPECT_EQ(n, packets.size());
}

TEST(PacketSourceTest, SpanSourceBatchesCopyWholeRuns) {
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 100, 5);
  auto source = make_span_source(packets);
  ASSERT_TRUE(source->next().has_value());  // the interfaces share one cursor
  std::vector<PacketRecord> out(3);
  ASSERT_EQ(source->next_batch(out), 3u);
  EXPECT_EQ(out[0].ts, packets[1].ts);
  EXPECT_EQ(out[2].ts, packets[3].ts);
  ASSERT_EQ(source->next_batch(out), 1u);
  EXPECT_EQ(out[0].ts, packets[4].ts);
  EXPECT_EQ(source->next_batch(out), 0u);
}

TEST(PacketSourceTest, TraceFileSourceRoundTrips) {
  const auto packets = harness::TraceBuilder(7).compact_space().packets(500);
  const auto path = temp_path("trace.hht");
  write_binary_trace(path.string(), packets);
  auto source = make_trace_source(path.string());
  std::vector<PacketRecord> back;
  while (auto p = source->next()) back.push_back(*p);
  EXPECT_EQ(back, packets);
  std::filesystem::remove(path);
}

TEST(PacketSourceTest, PcapSourceRebasesAndCounts) {
  const auto path = temp_path("src.pcap");
  {
    PcapWriter writer(path.string());
    auto p = harness::packet_at(100.0, Ipv4Address::of(10, 0, 0, 1), 400);
    writer.write(p);
    p = harness::packet_at(100.5, Ipv4Address::of(10, 0, 0, 2), 400);
    writer.write(p);
  }
  PcapSourceStats stats;
  auto source = make_pcap_source(path.string(), /*rebase_timestamps=*/true, &stats);
  const auto first = source->next();
  const auto second = source->next();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->ts, TimePoint());
  EXPECT_EQ(second->ts, TimePoint::from_seconds(0.5));
  EXPECT_FALSE(source->next());
  EXPECT_EQ(stats.decoded_v4, 2u);
  EXPECT_EQ(stats.decoded_v6, 0u);
  std::filesystem::remove(path);
}

// A deterministic PaceClock: sleep_until_ns() advances the clock instead
// of blocking, so pacing arithmetic is asserted exactly (docs/TESTING.md:
// timing tests never measure real wall-clock durations).
class FakePaceClock final : public PaceClock {
 public:
  std::int64_t now_ns() override { return now_; }
  void sleep_until_ns(std::int64_t deadline_ns) override {
    now_ = std::max(now_, deadline_ns);
  }

 private:
  std::int64_t now_ = 1'000'000'000;  // arbitrary nonzero epoch
};

TEST(PacketSourceTest, PacedSourcePacesDeliveryAtTargetPps) {
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 100, 200);
  FakePaceClock clock;
  const std::int64_t t0 = clock.now_ns();
  auto source =
      make_paced_source(make_span_source(packets), {.target_pps = 20000.0}, &clock);
  std::vector<PacketRecord> buffer(64);
  std::size_t total = 0;
  while (const std::size_t n = source->next_batch(buffer)) total += n;
  EXPECT_EQ(total, packets.size());
  // Packet k's deadline is t0 + k / pps: the 200th packet lands exactly at
  // 199 / 20000 s = 9.95 ms after start, and the fake clock never runs
  // ahead of the last deadline, so equality is exact — no tolerances.
  EXPECT_EQ(clock.now_ns() - t0, 199 * 1'000'000'000LL / 20000);
}

TEST(PacketSourceTest, PacedSourceStreamClockTracksSpeedFactor) {
  // At --speed=60 one wall millisecond is 60 trace milliseconds; stream_now
  // must report trace time mapped through the injected clock.
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 100, 3,
                                             /*start=*/0.0, /*gap=*/6.0);
  FakePaceClock clock;
  auto source = make_paced_source(make_span_source(packets), {.speed = 60.0}, &clock);
  ASSERT_TRUE(source->next());  // starts the pace clock at packet 0 (t=0)
  ASSERT_TRUE(source->next());  // sleeps until 6 s / 60 = 100 ms of wall time
  const auto now = source->stream_now();
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(*now, TimePoint::from_seconds(6.0));
}

TEST(PacketSourceTest, UnpacedPacedSourceDeliversEverythingImmediately) {
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 100, 50);
  auto source = make_paced_source(make_span_source(packets), {});
  std::vector<PacketRecord> buffer(64);
  EXPECT_EQ(source->next_batch(buffer), packets.size());
}

// ------------------------------------------------------ pipeline + sinks

PipelineConfig test_config(double phi, TimePoint finish) {
  PipelineConfig config;
  config.phi = phi;
  config.finish_at = finish;
  return config;
}

TEST(PipelineTest, CollectAndCallbackSinksSeeIdenticalReports) {
  const auto packets = harness::TraceBuilder(3).compact_space().packets(5000);
  const TimePoint end = packets.back().ts + Duration::millis(100);

  std::vector<WindowReport> via_callback;
  Pipeline pipe(make_span_source(packets),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(Duration::millis(50)), test_config(0.02, end));
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.add_sink(
      make_callback_sink([&](const WindowReport& r) { via_callback.push_back(r); }));
  const RunStats stats = pipe.run();

  EXPECT_EQ(stats.packets, packets.size());
  EXPECT_EQ(stats.windows_closed, collect.reports().size());
  ASSERT_EQ(via_callback.size(), collect.reports().size());
  for (std::size_t i = 0; i < via_callback.size(); ++i) {
    EXPECT_TRUE(harness::hhh_sets_equal(collect.reports()[i].hhhs, via_callback[i].hhhs));
  }
}

TEST(PipelineTest, MaxWindowsStopsTheRun) {
  const auto packets = harness::TraceBuilder(4).compact_space().packets(20000);
  PipelineConfig config;
  config.phi = 0.05;
  config.max_windows = 2;
  Pipeline pipe(make_span_source(packets),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(Duration::millis(50)), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  const RunStats stats = pipe.run();
  EXPECT_EQ(stats.windows_closed, 2u);
  EXPECT_EQ(collect.reports().size(), 2u);
  EXPECT_LT(stats.packets, packets.size());
}

TEST(PipelineTest, FlushOpenWindowEmitsTheFinalPartialEpoch) {
  // 3 packets inside [0, 10): without flush no window closes; with flush
  // exactly one report covering them.
  const auto packets = harness::packet_train(Ipv4Address::of(10, 0, 0, 1), 1000, 3);
  {
    PipelineConfig config;
    config.phi = 0.5;
    Pipeline pipe(make_span_source(packets),
                  make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                  make_disjoint_policy(Duration::seconds(10)), config);
    auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
    pipe.run();
    EXPECT_TRUE(collect.reports().empty());
  }
  {
    PipelineConfig config;
    config.phi = 0.5;
    config.flush_open_window = true;
    Pipeline pipe(make_span_source(packets),
                  make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                  make_disjoint_policy(Duration::seconds(10)), config);
    auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
    pipe.run();
    ASSERT_EQ(collect.reports().size(), 1u);
    EXPECT_EQ(collect.reports()[0].hhhs.total_bytes, 3000u);
  }
}

TEST(PipelineTest, AbsoluteThresholdModeDerivesPhiPerWindow) {
  // One window with 9 kB total and a 4 kB absolute threshold: only the
  // 6 kB source crosses it (the 3 kB one stays strictly under).
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 6; ++i) {
    packets.push_back(harness::packet_at(0.1 * i, Ipv4Address::of(10, 0, 0, 1), 1000));
  }
  for (int i = 0; i < 3; ++i) {
    packets.push_back(
        harness::packet_at(0.1 * i + 0.05, Ipv4Address::of(99, 7, 3, 1), 1000));
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.ts < b.ts; });
  PipelineConfig config;
  config.threshold_bytes = 4000.0;
  config.finish_at = TimePoint::from_seconds(1.0);
  Pipeline pipe(make_span_source(packets),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(Duration::seconds(1)), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.run();
  ASSERT_EQ(collect.reports().size(), 1u);
  const HhhSet& set = collect.reports()[0].hhhs;
  EXPECT_TRUE(set.contains(PrefixKey(IpAddress(Ipv4Address::of(10, 0, 0, 1)), 32)));
  EXPECT_FALSE(set.contains(PrefixKey(IpAddress(Ipv4Address::of(99, 7, 3, 1)), 32)));
}

TEST(PipelineTest, WallClockClosesEmptyWindowsThroughQuietStretches) {
  // A source that delivers three packets early, then reports stream time
  // far ahead: the wall-clock pipeline must close the empty windows in
  // between without waiting for more packets.
  class QuietSource final : public PacketSource {
   public:
    std::optional<PacketRecord> next() override {
      if (sent_ >= 3) return std::nullopt;
      return harness::packet_at(0.1 * static_cast<double>(sent_++),
                                Ipv4Address::of(10, 0, 0, 1), 500);
    }
    std::optional<TimePoint> stream_now() const override {
      return sent_ >= 3 ? std::optional<TimePoint>(TimePoint::from_seconds(5.0))
                        : std::nullopt;
    }
    std::string name() const override { return "quiet"; }

   private:
    std::size_t sent_ = 0;
  };

  PipelineConfig config;
  config.phi = 0.5;
  config.wall_clock = true;
  Pipeline pipe(std::make_unique<QuietSource>(),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(Duration::seconds(1)), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.run();
  ASSERT_EQ(collect.reports().size(), 5u);
  EXPECT_EQ(collect.reports()[0].hhhs.total_bytes, 1500u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(collect.reports()[i].hhhs.total_bytes, 0u) << "window " << i;
  }
}

// ------------------------------------------------- snapshot frame streams

TEST(SnapshotStreamTest, PerWindowFramesMergeBackToTheWholeStream) {
  const auto packets = harness::TraceBuilder(9).compact_space().packets(8000);
  const TimePoint end = packets.back().ts + Duration::millis(50);
  const auto path = temp_path("frames.bin");

  PipelineConfig config;
  config.phi = 0.05;
  config.finish_at = end;
  Pipeline pipe(make_span_source(packets),
                make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
                make_disjoint_policy(Duration::millis(50)), config);
  pipe.add_sink(make_snapshot_stream_sink(path.string()));
  const RunStats stats = pipe.run();
  ASSERT_GE(stats.windows_closed, 2u);

  auto reader = SnapshotFrameReader::from_file(path.string());
  std::unique_ptr<HhhEngine> merged;
  std::size_t frames = 0;
  while (const auto frame = reader.next()) {
    auto engine = wire::load_engine(*frame);
    if (!merged) {
      merged = std::move(engine);
    } else {
      merged->merge_from(*engine);
    }
    ++frames;
  }
  ASSERT_EQ(frames, stats.windows_closed);

  // Lossless exact merge across the window partition == one engine over
  // the whole stream.
  auto offline = make_exact_engine(Hierarchy::byte_granularity());
  offline->add_batch(packets);
  EXPECT_EQ(merged->total_bytes(), offline->total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(offline->extract(0.05), merged->extract(0.05)));
  std::filesystem::remove(path);
}

TEST(SnapshotStreamTest, TruncatedTailIsAnErrorNotEndOfStream) {
  auto engine = make_exact_engine(Hierarchy::byte_granularity());
  const auto frame = wire::save_engine(*engine);
  std::vector<std::uint8_t> bytes(frame);
  bytes.insert(bytes.end(), frame.begin(), frame.begin() + 10);  // torn second frame
  SnapshotFrameReader reader(bytes);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_THROW(reader.next(), wire::WireFormatError);
}

// -------------------------------------------- sliding & decaying pairings

TEST(PipelineStagesTest, MementoStageMatchesDirectDetectorQueries) {
  const auto packets = harness::TraceBuilder(5).compact_space().packets(10000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  const MementoHhhParams params{.window = Duration::millis(100), .frames = 5};

  // One-packet ingest runs: the twin below then draws its sampled levels
  // from the same RNG outputs as the stage's offer_batch calls.
  PipelineConfig config;
  config.phi = 0.05;
  config.finish_at = end;
  config.batch_size = 1;
  Pipeline pipe(make_span_source(packets),
                make_memento_stage(std::make_unique<MementoHhhDetector>(params)),
                make_sliding_policy(params.window, Duration::millis(20)), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.run();
  ASSERT_GE(collect.reports().size(), 3u);

  // Twin detector driven by hand, queried at the same boundaries.
  MementoHhhDetector twin(params);
  std::size_t next = 0;
  for (const auto& p : packets) {
    while (next < collect.reports().size() && collect.reports()[next].end <= p.ts) {
      EXPECT_TRUE(harness::hhh_sets_equal(twin.query(collect.reports()[next].end, 0.05),
                                          collect.reports()[next].hhhs))
          << "report " << next;
      ++next;
    }
    twin.offer_batch(std::span<const PacketRecord>(&p, 1));
  }
  for (; next < collect.reports().size(); ++next) {
    EXPECT_TRUE(harness::hhh_sets_equal(twin.query(collect.reports()[next].end, 0.05),
                                        collect.reports()[next].hhhs))
        << "report " << next;
  }
}

TEST(PipelineStagesTest, SlidingExactStageMatchesDetectorReports) {
  const auto packets = harness::TraceBuilder(6).compact_space().packets(10000);
  const TimePoint end = packets.back().ts + Duration::millis(100);
  SlidingWindowHhhDetector::Params params;
  params.window = Duration::millis(100);
  params.step = Duration::millis(20);
  params.phi = 0.05;

  PipelineConfig config;
  config.phi = params.phi;
  config.finish_at = end;
  Pipeline pipe(make_span_source(packets), make_sliding_exact_stage(params),
                make_sliding_policy(params.window, params.step), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.run();

  SlidingWindowHhhDetector direct(params);
  for (const auto& p : packets) direct.offer(p);
  direct.finish(end);

  ASSERT_EQ(collect.reports().size(), direct.reports().size());
  for (std::size_t i = 0; i < direct.reports().size(); ++i) {
    EXPECT_EQ(collect.reports()[i].index, direct.reports()[i].index);
    EXPECT_EQ(collect.reports()[i].end, direct.reports()[i].end);
    EXPECT_TRUE(
        harness::hhh_sets_equal(direct.reports()[i].hhhs, collect.reports()[i].hhhs))
        << "report " << i;
  }
}

TEST(PipelineStagesTest, TdbfStageAnswersEveryCadenceTick) {
  const auto packets = harness::TraceBuilder(8).compact_space().packets(5000);
  const TimePoint end = packets.back().ts + Duration::millis(50);
  PipelineConfig config;
  config.phi = 0.1;
  config.finish_at = end;
  Pipeline pipe(make_span_source(packets),
                make_tdbf_stage(TimeDecayingHhhDetector::for_window(Duration::millis(100))),
                make_query_cadence_policy(Duration::millis(25)), config);
  auto& collect = pipe.add_sink(std::make_unique<CollectSink>());
  pipe.run();
  ASSERT_GE(collect.reports().size(), 2u);
  for (const auto& r : collect.reports()) {
    EXPECT_EQ(r.start, TimePoint());  // continuous-time: covers all history
  }
}

// ----------------------------------------------------------- shard router

TEST(ShardRouterTest, SingleShardIsTheInnerEngine) {
  auto engine = route_shards(
      ShardPlan{}, [](std::size_t) { return make_exact_engine(Hierarchy::byte_granularity()); });
  EXPECT_EQ(engine->name(), "exact");
}

TEST(ShardRouterTest, MultiShardRoutesAndMergesLosslessly) {
  const auto packets = harness::TraceBuilder(12).compact_space().packets(10000);
  ShardPlan plan;
  plan.shards = 2;
  auto sharded = route_shards(
      plan, [](std::size_t) { return make_exact_engine(Hierarchy::byte_granularity()); });
  EXPECT_EQ(sharded->name(), "sharded_exact_x2");
  sharded->add_batch(packets);
  auto single = make_exact_engine(Hierarchy::byte_granularity());
  single->add_batch(packets);
  EXPECT_TRUE(harness::hhh_sets_equal(single->extract(0.02), sharded->extract(0.02)));
}

}  // namespace
}  // namespace hhh
