// §3-T2 — "compare it with existing solutions in terms of performance".
//
// Two modes:
//
//  * default: the ingestion throughput harness. Replays a pre-generated
//    CAIDA-like stream into each HhhEngine through add_batch() chunks of
//    --batch packets (--batch=1 is the per-packet cost) and writes
//    BENCH_throughput.json so successive PRs have a comparable perf
//    trajectory.
//
//  * --microbench: the google-benchmark microbench suite (per-packet
//    update cost of every sketch/engine in the library, plus query
//    costs). Compiled in only where google-benchmark exists
//    (HHH_HAVE_GBENCH); the JSON mode has no external dependencies.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ancestry_hhh.hpp"
#include "core/exact_engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "core/sharded_engine.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "core/univmon_hhh.hpp"
#include "dataplane/hashpipe.hpp"
#include "dataplane/p4_tdbf.hpp"
#include "pipeline/pipeline.hpp"
#include "sketch/memento.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/tdbf.hpp"
#include "sketch/univmon.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "wire/snapshot.hpp"

#if HHH_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace hhh {
namespace {

const std::vector<PacketRecord>& stream() {
  static const std::vector<PacketRecord> packets = [] {
    TraceConfig cfg = TraceConfig::caida_like_day(0, Duration::seconds(40), 25000.0);
    return SyntheticTraceGenerator(cfg).generate_all();
  }();
  return packets;
}

/// The same stream embedded into IPv6 (v6_fraction = 1): identical Zipf
/// structure at shifted hierarchy levels, so the v6 rows below measure the
/// 128-bit key layer, not a different workload.
const std::vector<PacketRecord>& v6_stream() {
  static const std::vector<PacketRecord> packets = [] {
    TraceConfig cfg = TraceConfig::caida_like_day(0, Duration::seconds(40), 25000.0);
    cfg.v6_fraction = 1.0;
    return SyntheticTraceGenerator(cfg).generate_all();
  }();
  return packets;
}

// --- JSON throughput harness -------------------------------------------------

struct ThroughputOptions {
  std::string json_path = "BENCH_throughput.json";
  std::size_t batch_size = 16384;
  int repeats = 3;
};

struct EngineResult {
  std::string name;
  double add_batch_pps = 0.0;  ///< add_batch() in batch_size chunks
  std::size_t shards = 0;      ///< worker threads (0 = single-threaded engine)
};

/// One cell of the shard-scaling matrix: add_batch throughput of one
/// engine family at one shard count (shards = 0 is the unsharded
/// single-thread baseline the ratios are taken against).
struct ScalingRow {
  std::string engine;  ///< "exact" | "rhhh"
  std::size_t shards = 0;
  double add_batch_pps = 0.0;
};

/// The hhh-live saturation row: the highest --pps the windowed pipeline
/// could sustain on this host (unpaced replay through the same
/// source -> sharded engine -> disjoint-window configuration hhh-live
/// builds, window closes included in the timed region).
struct SaturationResult {
  std::string engine;
  std::size_t shards = 0;
  double window_s = 0.0;
  std::size_t windows = 0;
  double pps = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- snapshot (wire) round-trip rows ----------------------------------------

struct SnapshotResult {
  std::string name;
  std::size_t snapshot_bytes = 0;
  double serialize_mbps = 0.0;    ///< save_engine() throughput, MB/s of frame
  double deserialize_mbps = 0.0;  ///< load_engine()/load_engine_into(), MB/s
};

/// Serialize+deserialize throughput of one ingested engine — the cost a
/// vantage point pays per epoch to ship its summary, and the collector
/// pays to take it in.
template <typename MakeEngine>
SnapshotResult measure_snapshot(const std::string& name, MakeEngine&& make,
                                const std::vector<PacketRecord>& packets,
                                const ThroughputOptions& opt) {
  auto engine = make();
  engine->add_batch(packets);
  if (auto* sharded = dynamic_cast<ShardedHhhEngine*>(engine.get())) sharded->drain();

  SnapshotResult result;
  result.name = name;
  const std::vector<std::uint8_t> frame = wire::save_engine(*engine);
  result.snapshot_bytes = frame.size();
  const double mb = static_cast<double>(frame.size()) / 1e6;

  for (int r = 0; r < opt.repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto bytes = wire::save_engine(*engine);
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0 && !bytes.empty()) {
      result.serialize_mbps = std::max(result.serialize_mbps, mb / elapsed);
    }
  }
  for (int r = 0; r < opt.repeats; ++r) {
    auto receiver = make();
    const auto t0 = std::chrono::steady_clock::now();
    wire::load_engine_into(frame, *receiver);
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0 && receiver->total_bytes() == engine->total_bytes()) {
      result.deserialize_mbps = std::max(result.deserialize_mbps, mb / elapsed);
    }
  }
  std::printf("%-18s  snapshot: %8zu B   serialize: %8.1f MB/s   deserialize: %8.1f MB/s\n",
              result.name.c_str(), result.snapshot_bytes, result.serialize_mbps,
              result.deserialize_mbps);
  return result;
}

/// wire::crc32 throughput over a 1 MiB buffer (MB/s, median of repeats):
/// every frame build and every frame parse pays it once per byte, so it
/// bounds both snapshot rows above and the collector's per-frame checks.
double measure_crc32_mbps(std::size_t buffer_bytes, const ThroughputOptions& opt) {
  std::vector<std::uint8_t> buf(buffer_bytes);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  constexpr int kPasses = 64;  // ~64 MB per repeat, well above timer noise
  std::uint32_t crc = 0;
  std::vector<double> rates;
  for (int r = 0; r < opt.repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) crc = wire::crc32(buf.data(), buf.size(), crc);
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0) rates.push_back(kPasses * static_cast<double>(buf.size()) / 1e6 / elapsed);
  }
  std::sort(rates.begin(), rates.end());
  const double median = rates.empty() ? 0.0 : rates[rates.size() / 2];
  std::printf("wire_crc32          %zu B buffer: %8.1f MB/s median of %zu (min %.1f, max %.1f; "
              "%s; chained crc %08x)\n",
              buffer_bytes, median, rates.size(), rates.empty() ? 0.0 : rates.front(),
              rates.empty() ? 0.0 : rates.back(),
              simd::have_pclmul() ? "pclmul" : "slice-by-8", crc);
  return median;
}

// --- instrumentation overhead A/B row ---------------------------------------

/// The obs-layer acceptance gate: the same exact-engine pipeline replay
/// with PipelineConfig::metrics on vs off. The window is far longer than
/// the trace so no window closes inside the timed region — what remains
/// is the pure per-chunk instrumentation cost (a handful of relaxed RMWs
/// per batch) on the hottest ingestion path. bench_diff.py flags
/// overhead_pct above 2%.
struct OverheadResult {
  double metrics_on_pps = 0.0;
  double metrics_off_pps = 0.0;
  double overhead_pct = 0.0;  ///< (off - on) / off * 100; negative = noise
};

double pipeline_replay_pps(const std::vector<PacketRecord>& packets, bool metrics,
                           const ThroughputOptions& opt) {
  double best = 0.0;
  for (int r = 0; r < opt.repeats; ++r) {
    pipeline::PipelineConfig cfg;
    cfg.batch_size = opt.batch_size;
    cfg.metrics = metrics;
    // Construction stays outside the timed region, matching best_pps().
    pipeline::Pipeline p(pipeline::make_span_source(packets),
                         pipeline::make_engine_stage(
                             make_exact_engine(Hierarchy::byte_granularity())),
                         pipeline::make_disjoint_policy(Duration::seconds(1'000'000)),
                         cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const pipeline::RunStats stats = p.run();
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0 && stats.packets == packets.size()) {
      best = std::max(best, static_cast<double>(packets.size()) / elapsed);
    }
  }
  return best;
}

OverheadResult measure_instrumentation_overhead(const std::vector<PacketRecord>& packets,
                                                const ThroughputOptions& opt) {
  OverheadResult result;
  result.metrics_off_pps = pipeline_replay_pps(packets, false, opt);
  result.metrics_on_pps = pipeline_replay_pps(packets, true, opt);
  if (result.metrics_off_pps > 0.0) {
    result.overhead_pct = (result.metrics_off_pps - result.metrics_on_pps) /
                          result.metrics_off_pps * 100.0;
  }
  std::printf("instrumentation overhead (pipeline/exact): off %10.0f pps   "
              "on %10.0f pps   overhead %+.2f%%\n",
              result.metrics_off_pps, result.metrics_on_pps, result.overhead_pct);
  return result;
}

/// Best-of-`repeats` throughput of one full replay (packets/second).
/// Engine construction happens outside the timed region: only ingestion
/// is measured, not allocation/first-touch setup.
template <typename MakeEngine, typename Replay>
double best_pps(int repeats, std::size_t packets, MakeEngine&& make, Replay&& replay) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    auto engine = make();
    const auto t0 = std::chrono::steady_clock::now();
    replay(*engine);
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0) best = std::max(best, static_cast<double>(packets) / elapsed);
  }
  return best;
}

/// add_batch throughput in batch_size chunks. Replays are timed to
/// *completion*: a sharded engine returns from add_batch once batches are
/// enqueued, so each replay ends with drain() — workers must have
/// ingested every packet before the clock stops, otherwise we'd be
/// measuring enqueue speed.
template <typename MakeEngine>
double batch_only_pps(MakeEngine&& make, const std::vector<PacketRecord>& packets,
                      const ThroughputOptions& opt) {
  return best_pps(opt.repeats, packets.size(), make, [&](HhhEngine& engine) {
    const std::span<const PacketRecord> all(packets);
    for (std::size_t i = 0; i < all.size(); i += opt.batch_size) {
      engine.add_batch(all.subspan(i, std::min(opt.batch_size, all.size() - i)));
    }
    if (auto* sharded = dynamic_cast<ShardedHhhEngine*>(&engine)) sharded->drain();
  });
}

/// One engines row. `shards` is purely informational (0 = single-threaded
/// engine).
template <typename MakeEngine>
EngineResult measure_engine(const std::string& name, MakeEngine&& make,
                            const std::vector<PacketRecord>& packets,
                            const ThroughputOptions& opt, std::size_t shards = 0) {
  const EngineResult result{name, batch_only_pps(make, packets, opt), shards};
  std::printf("%-18s  add_batch: %10.0f pps\n", result.name.c_str(), result.add_batch_pps);
  return result;
}

/// Unpaced replay through the pipeline hhh-live runs (sharded exact
/// engine, disjoint windows): the measured rate is the ceiling for an
/// `hhh-live --pps=N` deployment on this host. The window is much
/// shorter than the trace, so every replay pays real window closes —
/// i.e. the quiesce-free epoch-snapshot extraction path — inside the
/// timed region, not just ingestion.
SaturationResult measure_live_saturation(const std::vector<PacketRecord>& packets,
                                         const ThroughputOptions& opt) {
  SaturationResult result;
  result.engine = "sharded_exact_x4";
  result.shards = 4;
  result.window_s = 5.0;
  for (int r = 0; r < opt.repeats; ++r) {
    pipeline::PipelineConfig cfg;
    cfg.batch_size = opt.batch_size;
    cfg.phi = 0.05;
    pipeline::Pipeline p(
        pipeline::make_span_source(packets),
        pipeline::make_engine_stage(
            make_sharded_exact_engine(Hierarchy::byte_granularity(), result.shards)),
        pipeline::make_disjoint_policy(Duration::from_seconds(result.window_s)), cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const pipeline::RunStats stats = p.run();
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0 && stats.packets == packets.size()) {
      result.pps = std::max(result.pps, static_cast<double>(packets.size()) / elapsed);
      result.windows = stats.windows_closed;
    }
  }
  std::printf("hhh-live saturation (%s, %.0fs windows, %zu closes): %10.0f pps\n",
              result.engine.c_str(), result.window_s, result.windows, result.pps);
  return result;
}

// --- sliding-window section --------------------------------------------------

/// One sliding-window summary row: packet rate of add_batch in
/// batch_size chunks, plus precision/recall of its report against the
/// exact sliding summary's at the same instant — throughput numbers are
/// only comparable when the summaries answer (roughly) the same question.
struct SlidingResult {
  std::string name;
  std::string family;  ///< "v4" | "v6"
  double add_batch_pps = 0.0;
  double precision = 1.0;
  double recall = 1.0;
};

void score_against(const HhhSet& exact, const HhhSet& approx, SlidingResult* row) {
  const auto got = approx.prefixes(), truth = exact.prefixes();
  std::size_t hits = 0;
  for (const auto& p : got) {
    if (std::binary_search(truth.begin(), truth.end(), p)) ++hits;
  }
  row->precision =
      got.empty() ? 1.0 : static_cast<double>(hits) / static_cast<double>(got.size());
  row->recall =
      truth.empty() ? 1.0 : static_cast<double>(hits) / static_cast<double>(truth.size());
}

/// Times one sliding summary's ingestion (best of repeats, like
/// measure_engine), then replays once more and scores report(at, phi)
/// against `truth`.
template <typename MakeDet>
SlidingResult measure_sliding(const std::string& name, const std::string& family,
                              MakeDet&& make, const std::vector<PacketRecord>& packets,
                              const HhhSet& truth, TimePoint at, double phi,
                              const ThroughputOptions& opt) {
  SlidingResult result;
  result.name = name;
  result.family = family;
  result.add_batch_pps = best_pps(opt.repeats, packets.size(), make, [&](HhhSummary& det) {
    const std::span<const PacketRecord> all(packets);
    for (std::size_t i = 0; i < all.size(); i += opt.batch_size) {
      det.add_batch(all.subspan(i, std::min(opt.batch_size, all.size() - i)));
    }
  });
  auto det = make();
  det->add_batch(packets);
  score_against(truth, det->report(at, phi), &result);
  std::printf("%-14s %-3s  add_batch: %10.0f pps   precision %.2f  recall %.2f\n",
              result.name.c_str(), result.family.c_str(), result.add_batch_pps,
              result.precision, result.recall);
  return result;
}

/// Exact-sliding vs Memento over the same window/step/trace, v4 and v6.
/// Every row is scored at the step boundary after the trace's last
/// packet, where the exact summary and Memento (frames of one step) both
/// cover the W/s steps [at - W, at). bench_diff.py holds the
/// `memento >= 3x exact_sliding` gate against these rows.
std::vector<SlidingResult> measure_sliding_section(const ThroughputOptions& opt,
                                                   Duration window, double phi) {
  const Duration step = Duration::seconds(1);
  // The step boundary after a trace's last packet, and the exact answer there.
  const auto truth = [&](const std::vector<PacketRecord>& packets, const Hierarchy& hierarchy) {
    const TimePoint at = TimePoint() + step * (packets.back().ts.ns() / step.ns() + 1);
    auto exact = make_exact_sliding_summary(
        {.window = window, .step = step, .hierarchy = hierarchy});
    exact->add_batch(packets);
    return std::pair{at, exact->report(at, phi)};
  };
  std::vector<SlidingResult> rows;
  const auto& packets = stream();
  const auto [at, exact_v4] = truth(packets, Hierarchy::byte_granularity());
  rows.push_back(measure_sliding(
      "exact_sliding", "v4",
      [&] {
        return std::make_unique<ExactSlidingSummary>(
            ExactSlidingParams{.window = window, .step = step});
      },
      packets, exact_v4, at, phi, opt));
  rows.push_back(measure_sliding(
      "memento", "v4",
      [&] { return std::make_unique<MementoHhhDetector>(MementoHhhParams{.window = window}); },
      packets, exact_v4, at, phi, opt));

  const auto& v6_packets = v6_stream();
  const auto [v6_at, exact_v6] = truth(v6_packets, Hierarchy::v6_byte_granularity());
  rows.push_back(measure_sliding(
      "memento_v6", "v6",
      [&] {
        return std::make_unique<MementoHhhV6Detector>(MementoHhhParams{
            .hierarchy = Hierarchy::v6_byte_granularity(), .window = window});
      },
      v6_packets, exact_v6, v6_at, phi, opt));
  return rows;
}

int run_throughput_harness(const ThroughputOptions& opt) {
  const auto& packets = stream();
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== throughput: add_batch(%zu) over %zu packets "
              "(%u hardware threads) ==\n",
              opt.batch_size, packets.size(), hw_threads);

  std::vector<EngineResult> results;
  results.push_back(measure_engine(
      "exact", [] { return make_exact_engine(Hierarchy::byte_granularity()); }, packets,
      opt));
  results.push_back(measure_engine(
      "rhhh",
      [] {
        return std::make_unique<RhhhEngine>(
            RhhhEngine::Params{.counters_per_level = 512, .seed = 0xBE9C});
      },
      packets, opt));
  results.push_back(measure_engine(
      "hss",
      [] {
        return std::make_unique<RhhhEngine>(RhhhEngine::Params{
            .counters_per_level = 512, .update_all_levels = true, .seed = 0xBE9C});
      },
      packets, opt));
  results.push_back(measure_engine(
      "ancestry",
      [] { return std::make_unique<AncestryHhhEngine>(AncestryHhhEngine::Params{.eps = 0.005}); },
      packets, opt));
  results.push_back(measure_engine(
      "univmon",
      [] {
        return std::make_unique<UnivmonHhhEngine>(
            UnivmonHhhEngine::Params{.sketch_width = 2048, .top_k = 128});
      },
      packets, opt));

  // Sharded scaling rows: the same exact computation fanned out over N
  // worker threads (hash-partitioned streams, merged at extraction). The
  // per-shard-count trajectory is the point — on a multi-core host the
  // exact engine's add_batch should scale with shards until partitioning
  // (front-end) or memory bandwidth saturates.
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    results.push_back(measure_engine(
        "sharded_exact_x" + std::to_string(shards),
        [shards] { return make_sharded_exact_engine(Hierarchy::byte_granularity(), shards); },
        packets, opt, shards));
  }
  results.push_back(measure_engine(
      "sharded_rhhh_x4",
      [] { return make_sharded_rhhh_engine(Hierarchy::byte_granularity(), 4, 512, 0xBE9C); },
      packets, opt, 4));

  // IPv6 rows: the generic key layer's 128-bit instantiations over the
  // same Zipf structure. exact_v6 pays 17 levels of 24-byte keys per
  // packet (vs 5 levels of 8-byte keys for v4); rhhh_v6 stays O(1) per
  // packet regardless — the RHHH trade made visible across families.
  results.push_back(measure_engine(
      "exact_v6", [] { return make_exact_engine(Hierarchy::v6_byte_granularity()); },
      v6_stream(), opt));
  results.push_back(measure_engine(
      "rhhh_v6",
      [] {
        return std::make_unique<RhhhV6Engine>(
            RhhhParams{.hierarchy = Hierarchy::v6_byte_granularity(),
                       .counters_per_level = 512,
                       .seed = 0xBE9C});
      },
      v6_stream(), opt));

  // Shard-scaling matrix: add_batch pps per shard count for both engine
  // families, against their unsharded baselines (shards = 0). Exact rows
  // and rhhh x4 reuse the measurements above; the remaining rhhh cells
  // are measured batch-only. tools/bench_diff.py compares the trajectory
  // only when hardware_threads > 1 — a 1-core container serializes the
  // workers and would mask (or fake) every scaling regression.
  std::printf("\n== shard scaling (add_batch pps per shard count) ==\n");
  const auto pps_of = [&results](const std::string& name) {
    for (const auto& r : results) {
      if (r.name == name) return r.add_batch_pps;
    }
    return 0.0;
  };
  std::vector<ScalingRow> scaling;
  scaling.push_back({"exact", 0, pps_of("exact")});
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    scaling.push_back({"exact", shards, pps_of("sharded_exact_x" + std::to_string(shards))});
  }
  scaling.push_back({"rhhh", 0, pps_of("rhhh")});
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const double pps =
        shards == 4 ? pps_of("sharded_rhhh_x4")
                    : batch_only_pps(
                          [shards] {
                            return make_sharded_rhhh_engine(Hierarchy::byte_granularity(),
                                                            shards, 512, 0xBE9C);
                          },
                          packets, opt);
    scaling.push_back({"rhhh", shards, pps});
  }
  for (const auto& row : scaling) {
    std::printf("%-6s x%zu  %10.0f pps%s\n", row.engine.c_str(), row.shards,
                row.add_batch_pps, row.shards == 0 ? "   (single-thread baseline)" : "");
  }
  const SaturationResult saturation = measure_live_saturation(packets, opt);

  // Sliding-window rows: the summaries answering "HHHs of the trailing W
  // as of now" at the same window over the same trace. Both Memento rows
  // are scored against the exact sliding summary of their family.
  const Duration sliding_window = Duration::seconds(10);
  const double sliding_phi = 0.05;
  std::printf("\n== sliding window (W=%.0fs, phi=%.2f): add_batch of 1 vs of a batch ==\n",
              sliding_window.to_seconds(), sliding_phi);
  const std::vector<SlidingResult> sliding =
      measure_sliding_section(opt, sliding_window, sliding_phi);
  const auto sliding_pps = [&sliding](const std::string& name) {
    for (const auto& r : sliding) {
      if (r.name == name) return r.add_batch_pps;
    }
    return 0.0;
  };
  const double memento_vs_exact =
      sliding_pps("exact_sliding") > 0.0
          ? sliding_pps("memento") / sliding_pps("exact_sliding")
          : 0.0;
  std::printf("memento vs exact_sliding: %.2fx add_batch pps (gate: >= 3x)\n",
              memento_vs_exact);

  // Wire round-trip trajectory: what serialize/deserialize costs per
  // engine summary (the multi-vantage shipping path).
  std::printf("\n== snapshot round trip (wire/snapshot.hpp frames) ==\n");
  std::vector<SnapshotResult> snapshots;
  snapshots.push_back(measure_snapshot(
      "exact", [] { return make_exact_engine(Hierarchy::byte_granularity()); }, packets,
      opt));
  snapshots.push_back(measure_snapshot(
      "rhhh",
      [] {
        return std::make_unique<RhhhEngine>(
            RhhhEngine::Params{.counters_per_level = 512, .seed = 0xBE9C});
      },
      packets, opt));
  snapshots.push_back(measure_snapshot(
      "hss",
      [] {
        return std::make_unique<RhhhEngine>(RhhhEngine::Params{
            .counters_per_level = 512, .update_all_levels = true, .seed = 0xBE9C});
      },
      packets, opt));
  snapshots.push_back(measure_snapshot(
      "exact_v6", [] { return make_exact_engine(Hierarchy::v6_byte_granularity()); },
      v6_stream(), opt));
  snapshots.push_back(measure_snapshot(
      "rhhh_v6",
      [] {
        return std::make_unique<RhhhV6Engine>(
            RhhhParams{.hierarchy = Hierarchy::v6_byte_granularity(),
                       .counters_per_level = 512,
                       .seed = 0xBE9C});
      },
      v6_stream(), opt));
  snapshots.push_back(measure_snapshot(
      "ancestry",
      [] { return std::make_unique<AncestryHhhEngine>(AncestryHhhEngine::Params{.eps = 0.005}); },
      packets, opt));
  snapshots.push_back(measure_snapshot(
      "univmon",
      [] {
        return std::make_unique<UnivmonHhhEngine>(
            UnivmonHhhEngine::Params{.sketch_width = 2048, .top_k = 128});
      },
      packets, opt));
  snapshots.push_back(measure_snapshot(
      "sharded_exact_x4",
      [] { return make_sharded_exact_engine(Hierarchy::byte_granularity(), 4); }, packets,
      opt));
  const std::size_t crc_buffer_bytes = std::size_t{1} << 20;
  const double crc32_mbps = measure_crc32_mbps(crc_buffer_bytes, opt);

  std::printf("\n== instrumentation overhead (PipelineConfig::metrics A/B) ==\n");
  const OverheadResult overhead = measure_instrumentation_overhead(packets, opt);

  std::FILE* out = std::fopen(opt.json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"throughput\",\n");
  std::fprintf(out, "  \"packets\": %zu,\n", packets.size());
  std::fprintf(out, "  \"batch_size\": %zu,\n", opt.batch_size);
  std::fprintf(out, "  \"repeats\": %d,\n", opt.repeats);
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(out, "  \"engines\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"shards\": %zu, \"add_batch_pps\": %.1f}%s\n",
                 r.name.c_str(), r.shards, r.add_batch_pps, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"scaling\": {\n");
  std::fprintf(out, "    \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(out, "    \"rows\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& row = scaling[i];
    std::fprintf(out,
                 "      {\"engine\": \"%s\", \"shards\": %zu, \"add_batch_pps\": %.1f}%s\n",
                 row.engine.c_str(), row.shards, row.add_batch_pps,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"saturation\": {\"mode\": \"hhh-live\", \"engine\": \"%s\", "
               "\"shards\": %zu, \"window_s\": %.1f, \"windows\": %zu, \"pps\": %.1f}\n",
               saturation.engine.c_str(), saturation.shards, saturation.window_s,
               saturation.windows, saturation.pps);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sliding\": {\n");
  std::fprintf(out, "    \"window_s\": %.1f,\n", sliding_window.to_seconds());
  std::fprintf(out, "    \"phi\": %.2f,\n", sliding_phi);
  std::fprintf(out, "    \"memento_vs_exact_sliding_speedup\": %.4f,\n", memento_vs_exact);
  std::fprintf(out, "    \"rows\": [\n");
  for (std::size_t i = 0; i < sliding.size(); ++i) {
    const auto& r = sliding[i];
    std::fprintf(out,
                 "      {\"engine\": \"%s\", \"family\": \"%s\", \"add_batch_pps\": %.1f, "
                 "\"precision\": %.4f, \"recall\": %.4f}%s\n",
                 r.name.c_str(), r.family.c_str(), r.add_batch_pps,
                 r.precision, r.recall, i + 1 < sliding.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"instrumentation_overhead\": {\"metrics_on_pps\": %.1f, "
               "\"metrics_off_pps\": %.1f, \"overhead_pct\": %.3f},\n",
               overhead.metrics_on_pps, overhead.metrics_off_pps, overhead.overhead_pct);
  std::fprintf(out, "  \"wire_crc32\": {\"buffer_bytes\": %zu, \"mbps\": %.2f},\n",
               crc_buffer_bytes, crc32_mbps);
  std::fprintf(out, "  \"snapshot_roundtrip\": [\n");
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto& s = snapshots[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"snapshot_bytes\": %zu, "
                 "\"serialize_mbps\": %.2f, \"deserialize_mbps\": %.2f}%s\n",
                 s.name.c_str(), s.snapshot_bytes, s.serialize_mbps, s.deserialize_mbps,
                 i + 1 < snapshots.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hhh

#if HHH_HAVE_GBENCH
namespace hhh {
namespace {

/// Cycles through the stream forever with *monotone* timestamps: each
/// wrap-around shifts time by the trace length (time-decaying structures
/// require non-decreasing clocks).
class MonotoneReplay {
 public:
  explicit MonotoneReplay(const std::vector<PacketRecord>& packets)
      : packets_(packets), span_(Duration::seconds(40)) {}

  PacketRecord next() {
    PacketRecord p = packets_[i_];
    p.ts += span_ * cycle_;
    if (++i_ == packets_.size()) {
      i_ = 0;
      ++cycle_;
    }
    return p;
  }

 private:
  const std::vector<PacketRecord>& packets_;
  Duration span_;
  std::size_t i_ = 0;
  std::int64_t cycle_ = 0;
};

void BM_ExactLevelAggregates(benchmark::State& state) {
  const auto& packets = stream();
  LevelAggregates agg(Hierarchy::byte_granularity());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = packets[i++ % packets.size()];
    agg.add(p.src(), p.ip_len);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactLevelAggregates);

void BM_SpaceSaving(benchmark::State& state) {
  const auto& packets = stream();
  SpaceSaving ss(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = packets[i++ % packets.size()];
    ss.update(p.src().v4().bits(), p.ip_len);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSaving)->Arg(256)->Arg(1024)->ArgName("counters");

void BM_Rhhh(benchmark::State& state) {
  const auto& packets = stream();
  RhhhEngine engine({.counters_per_level = 512,
                     .update_all_levels = state.range(0) != 0});
  std::size_t i = 0;
  for (auto _ : state) {
    engine.add(packets[i++ % packets.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rhhh)->Arg(0)->Arg(1)->ArgName("all_levels");

void BM_RhhhBatch(benchmark::State& state) {
  const auto& packets = stream();
  RhhhEngine engine({.counters_per_level = 512,
                     .update_all_levels = state.range(0) != 0});
  const std::size_t batch = 4096;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::span<const PacketRecord> all(packets);
    const std::size_t n = std::min(batch, all.size() - i);
    engine.add_batch(all.subspan(i, n));
    i += n;
    if (i >= all.size()) i = 0;
    state.SetItemsProcessed(state.items_processed() + static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_RhhhBatch)->Arg(0)->Arg(1)->ArgName("all_levels");

void BM_AncestryHhh(benchmark::State& state) {
  const auto& packets = stream();
  AncestryHhhEngine engine({.eps = 0.005});
  std::size_t i = 0;
  for (auto _ : state) {
    engine.add(packets[i++ % packets.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AncestryHhh);

void BM_DecayingCountingBloom(benchmark::State& state) {
  const auto& packets = stream();
  DecayingCountingBloomFilter dcbf({.cells = 1 << 15, .hashes = 4,
                                    .half_life = Duration::seconds(7)});
  MonotoneReplay replay(packets);
  for (auto _ : state) {
    const PacketRecord p = replay.next();
    dcbf.update(p.src().v4().bits(), p.ip_len, p.ts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecayingCountingBloom);

void BM_TdbfHhhDetector(benchmark::State& state) {
  const auto& packets = stream();
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  MonotoneReplay replay(packets);
  for (auto _ : state) {
    det.add(replay.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TdbfHhhDetector);

void BM_MementoSummary(benchmark::State& state) {
  const auto& packets = stream();
  MementoSummary summary({.window = Duration::seconds(10), .frames = 10, .counters = 512});
  MonotoneReplay replay(packets);
  for (auto _ : state) {
    const PacketRecord p = replay.next();
    summary.update(p.src().v4().bits(), p.ip_len, p.ts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MementoSummary);

void BM_UnivMon(benchmark::State& state) {
  const auto& packets = stream();
  UnivMon um({.levels = 8, .sketch_width = 1024, .sketch_depth = 5, .top_k = 32});
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = packets[i++ % packets.size()];
    um.update(p.src().v4().bits(), static_cast<std::int64_t>(p.ip_len));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnivMon);

void BM_HashPipe(benchmark::State& state) {
  const auto& packets = stream();
  HashPipe hp({.stages = 4, .slots_per_stage = 1024});
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = packets[i++ % packets.size()];
    hp.update(p.src().v4().bits(), p.ip_len);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPipe);

void BM_P4Tdbf(benchmark::State& state) {
  const auto& packets = stream();
  P4Tdbf tdbf({.stages = 4, .cells_per_stage = 8192, .half_life = Duration::seconds(7)});
  MonotoneReplay replay(packets);
  for (auto _ : state) {
    const PacketRecord p = replay.next();
    tdbf.update(p.src().v4().bits(), p.ip_len, p.ts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_P4Tdbf);

// --- Query-side costs --------------------------------------------------------

void BM_ExactExtraction(benchmark::State& state) {
  const auto& packets = stream();
  LevelAggregates agg(Hierarchy::byte_granularity());
  for (const auto& p : packets) agg.add(p.src(), p.ip_len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_hhh_relative(agg, 0.01));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactExtraction);

void BM_TdbfHhhQuery(benchmark::State& state) {
  const auto& packets = stream();
  TimeDecayingHhhDetector det(TimeDecayingHhhDetector::for_window(Duration::seconds(10)));
  det.add_batch(packets);
  const TimePoint now = packets.back().ts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.report(now, 0.01));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TdbfHhhQuery);

}  // namespace
}  // namespace hhh
#endif  // HHH_HAVE_GBENCH

int main(int argc, char** argv) {
  hhh::ThroughputOptions opt;
  bool microbench = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--microbench") {
      microbench = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = std::string(arg.substr(7));
    } else if (arg.rfind("--batch=", 0) == 0) {
      std::uint64_t v = 0;
      if (hhh::parse_u64(arg.substr(8), v) && v > 0) opt.batch_size = v;
    } else if (arg.rfind("--repeats=", 0) == 0) {
      std::uint64_t v = 0;
      if (hhh::parse_u64(arg.substr(10), v) && v > 0) opt.repeats = static_cast<int>(v);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("modes:\n"
                  "  (default)      add vs add_batch throughput, writes JSON\n"
                  "  --microbench   google-benchmark per-structure suite\n"
                  "options: --json=PATH | --batch=N | --repeats=N\n");
      return 0;
    }
  }

  if (microbench) {
#if HHH_HAVE_GBENCH
    // Strip our flags; pass the rest (e.g. --benchmark_filter) through.
    std::vector<char*> bench_args;
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--microbench", 12) != 0) bench_args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    return 0;
#else
    std::fprintf(stderr,
                 "--microbench unavailable: built without google-benchmark\n");
    return 1;
#endif
  }
  return hhh::run_throughput_harness(opt);
}
