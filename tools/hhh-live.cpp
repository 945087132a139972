// hhh-live — windowed live replay: one vantage process of the paper's
// continuous-measurement model.
//
// Replays a stored trace (HHT binary, CSV or pcap) — or generates a
// synthetic one — through the streaming pipeline runtime
// (PacketSource -> ShardRouter -> HhhSummary stage -> WindowPolicy ->
// ReportSink), optionally paced against the wall clock, and emits one
// snapshot frame per closed window (per step for sliding detectors). The frame stream is exactly
// what hhh-collector consumes (files or --stdin), so
//
//   hhh-live --trace=vantage0.hht --pps=500000 --window=60 --out=- |
//     hhh-collector --stdin --threshold-bytes=1000000
//
// is a single-vantage live deployment: the replay ships a summary per
// epoch (flushed per frame) and the collector folds the whole stream at
// end of replay (it drains stdin to EOF before reporting). Several
// replays piped into one collector reproduce the multi-vantage
// hidden-HHH reveal with real window cadence instead of one offline
// snapshot.
//
// Usage:
//   hhh-live (--trace=P | --csv=P | --pcap=P | --synthetic=SEED) [options]
//
// Input options:
//   --trace=PATH       HHT binary trace (HHT2 or legacy HHT1)
//   --csv=PATH         CSV trace (ts_ns,src,dst,sport,dport,proto,ip_len)
//   --pcap=PATH        pcap capture (timestamps rebased to first packet)
//   --synthetic=SEED   CAIDA-like synthetic day (see --seconds, --gen-pps)
//   --scenario=NAME    named scenario preset (src/trace/scenarios.hpp) —
//                      the same seeded traffic the accuracy baseline and
//                      the gtests run on (see --seed, --seconds, --gen-pps)
//   --seed=N           scenario repetition seed (default 1)
//   --seconds=S        synthetic trace length (default 60)
//   --gen-pps=N        synthetic background rate (default 4000)
//
// Replay & window options:
//   --pps=N            pace delivery at N packets per wall second
//                      (0 = replay as fast as possible; the default)
//   --speed=X          pace proportionally to record timestamps, X times
//                      real time (mutually exclusive with --pps)
//   --window=S         disjoint window length in seconds (default 10)
//   --phi=F            relative threshold per window (default 0.05)
//   --threshold-bytes=N  absolute per-window threshold (overrides --phi)
//   --engine=NAME      exact | exact_v6 | rhhh | rhhh_v6 (default exact;
//                      these honour --shards), or any engine registry
//                      name (`hhh-live --engine=help` lists them;
//                      registry engines require --shards=1). Sliding
//                      detectors — memento | memento_v6 — run through
//                      the same stage as the engines, need --step and
//                      --shards=1, and snapshot their trailing-window
//                      state per step instead of resetting per window
//   --step=S           sliding report cadence in seconds: switch the
//                      schedule from disjoint windows to a sliding
//                      window of --window reported every S (requires a
//                      sliding --engine; window must be a multiple of S)
//   --shards=N         hash-partitioned worker threads (default 1)
//   --windows=N        stop after N closed windows
//
// Interval-query options (the frame-ring path):
//   --retain=N         keep the last N window frames in an in-process
//                      FrameRing alongside the output stream
//   --query-interval=T1:T2  after the replay, answer "top HHHs between
//                      T1 and T2 (seconds)" from the retained frames and
//                      print the report to stderr (implies --retain=64
//                      unless --retain is given)
//   --wall-clock       close windows on paced stream time, not only on
//                      packet arrival. Needs --speed: timestamp-
//                      proportional pacing is what maps wall time back to
//                      trace time; --pps pacing is count-based and skips
//                      trace-time gaps instantly, so there is no wall
//                      stretch to close windows through
//
// Output options (exactly one of --out / --connect):
//   --out=PATH         write the snapshot frame stream to PATH ("-" =
//                      stdout)
//   --connect=ADDR     stream each window as an epoch frame to an
//                      hhh-collectord (unix:PATH | tcp:HOST:PORT |
//                      HOST:PORT). Frames are journaled and replayed on
//                      reconnect; the run fails if the final bye/ack
//                      handshake cannot complete within --retry seconds.
//   --vantage=NAME     vantage name announced to the collector
//                      (default "live")
//   --retry=S          per-delivery reconnect budget for --connect
//                      (default 10)
//   --metrics-out=FILE write the process metrics registry (pipeline /
//                      engine / sink series) as a JSON snapshot at exit
//   --table            print a per-window report table to stderr
//
// Exit codes: 0 success, 1 usage error, 2 I/O error (including a
// collector that stayed unreachable past --retry), 3 the engine
// accounted none of the replayed traffic (address-family/engine
// mismatch, e.g. an IPv6 trace into the default IPv4 exact engine).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/engine_registry.hpp"
#include "core/exact_engine.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "trace/scenarios.hpp"
#include "pipeline/frame_ring.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/sink.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/window_policy.hpp"
#include "service/endpoint.hpp"
#include "service/vantage_client.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/strings.hpp"

namespace {

using namespace hhh;

struct Options {
  std::string trace, csv, pcap, scenario;
  std::optional<std::uint64_t> synthetic_seed;
  std::uint64_t scenario_seed = 1;
  double seconds = 60.0;
  double gen_pps = 4000.0;
  double pps = 0.0;
  double speed = 0.0;
  double window_s = 10.0;
  double step_s = 0.0;
  double phi = 0.05;
  double threshold_bytes = 0.0;
  std::string engine = "exact";
  std::size_t shards = 1;
  std::size_t retain = 0;
  std::optional<std::pair<double, double>> query_interval;
  std::optional<std::size_t> max_windows;
  bool wall_clock = false;
  std::string out;
  std::optional<service::Endpoint> connect;
  std::string vantage = "live";
  double retry_s = 10.0;
  std::string metrics_out;
  bool table = false;
};

/// Ship each closed window as one epoch frame to the collector: the
/// window's span on the epoch grid plus the stage snapshot taken at
/// close (before any policy reset).
class ConnectSink final : public pipeline::ReportSink {
 public:
  explicit ConnectSink(service::VantageClient& client) : client_(client) {}

  void on_window(const WindowReport& report, pipeline::SinkContext& ctx) override {
    client_.send_epoch(report.start.ns(), report.end.ns(), ctx.snapshot());
  }

 private:
  service::VantageClient& client_;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: hhh-live (--trace=P | --csv=P | --pcap=P | --synthetic=SEED |\n"
               "                 --scenario=NAME [--seed=N])\n"
               "                (--out=PATH|- | --connect=ADDR [--vantage=NAME] [--retry=S])\n"
               "                [--pps=N | --speed=X] [--window=S] [--step=S]\n"
               "                [--phi=F | --threshold-bytes=N] [--engine=NAME]\n"
               "                [--shards=N] [--windows=N] [--wall-clock]\n"
               "                [--retain=N] [--query-interval=T1:T2]\n"
               "                [--metrics-out=FILE] [--table]\n"
               "Replays a trace through the pipeline runtime and emits one snapshot\n"
               "frame per closed window — to a file stream (hhh-collector's input)\n"
               "or live to an hhh-collectord vantage socket.\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  int inputs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::optional<std::string> {
      const std::size_t n = std::strlen(prefix);
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(n);
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (auto v = value("--trace=")) {
      opt.trace = *v;
      ++inputs;
    } else if (auto v = value("--csv=")) {
      opt.csv = *v;
      ++inputs;
    } else if (auto v = value("--pcap=")) {
      opt.pcap = *v;
      ++inputs;
    } else if (auto v = value("--synthetic=")) {
      opt.synthetic_seed = std::strtoull(v->c_str(), nullptr, 10);
      ++inputs;
    } else if (auto v = value("--scenario=")) {
      opt.scenario = *v;
      ++inputs;
    } else if (auto v = value("--seed=")) {
      opt.scenario_seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--seconds=")) {
      opt.seconds = std::atof(v->c_str());
    } else if (auto v = value("--gen-pps=")) {
      opt.gen_pps = std::atof(v->c_str());
    } else if (auto v = value("--pps=")) {
      opt.pps = std::atof(v->c_str());
    } else if (auto v = value("--speed=")) {
      opt.speed = std::atof(v->c_str());
    } else if (auto v = value("--window=")) {
      opt.window_s = std::atof(v->c_str());
    } else if (auto v = value("--step=")) {
      opt.step_s = std::atof(v->c_str());
    } else if (auto v = value("--retain=")) {
      opt.retain = static_cast<std::size_t>(std::strtoull(v->c_str(), nullptr, 10));
    } else if (auto v = value("--query-interval=")) {
      const std::size_t colon = v->find(':');
      if (colon == std::string::npos) return false;
      const double t1 = std::atof(v->substr(0, colon).c_str());
      const double t2 = std::atof(v->substr(colon + 1).c_str());
      if (t2 <= t1 || t1 < 0.0) return false;
      opt.query_interval = {t1, t2};
    } else if (auto v = value("--phi=")) {
      opt.phi = std::atof(v->c_str());
    } else if (auto v = value("--threshold-bytes=")) {
      opt.threshold_bytes = std::atof(v->c_str());
    } else if (auto v = value("--engine=")) {
      opt.engine = *v;
    } else if (auto v = value("--shards=")) {
      opt.shards = static_cast<std::size_t>(std::strtoull(v->c_str(), nullptr, 10));
    } else if (auto v = value("--windows=")) {
      opt.max_windows = static_cast<std::size_t>(std::strtoull(v->c_str(), nullptr, 10));
    } else if (arg == "--wall-clock") {
      opt.wall_clock = true;
    } else if (auto v = value("--out=")) {
      opt.out = *v;
    } else if (auto v = value("--connect=")) {
      const auto ep = service::Endpoint::parse(*v);
      if (!ep) return false;
      opt.connect = *ep;
    } else if (auto v = value("--vantage=")) {
      opt.vantage = *v;
      if (opt.vantage.empty()) return false;
    } else if (auto v = value("--retry=")) {
      opt.retry_s = std::atof(v->c_str());
      if (opt.retry_s <= 0.0) return false;
    } else if (auto v = value("--metrics-out=")) {
      opt.metrics_out = *v;
      if (opt.metrics_out.empty()) return false;
    } else if (arg == "--table") {
      opt.table = true;
    } else {
      return false;
    }
  }
  if (inputs != 1) return false;
  if (opt.out.empty() == !opt.connect.has_value()) return false;  // out XOR connect
  if (opt.pps > 0.0 && opt.speed > 0.0) return false;
  if (opt.window_s <= 0.0 || opt.seconds <= 0.0) return false;
  if (opt.step_s < 0.0) return false;
  if (opt.query_interval && opt.retain == 0) opt.retain = 64;
  if (opt.threshold_bytes <= 0.0 && (opt.phi <= 0.0 || opt.phi > 1.0)) return false;
  if (opt.shards == 0) return false;
  if (opt.wall_clock && opt.speed <= 0.0) return false;  // see --wall-clock docs
  return true;
}

std::unique_ptr<pipeline::PacketSource> open_source(const Options& opt) {
  std::unique_ptr<pipeline::PacketSource> source;
  if (!opt.trace.empty()) {
    source = pipeline::make_trace_source(opt.trace);
  } else if (!opt.csv.empty()) {
    source = pipeline::make_csv_source(opt.csv);
  } else if (!opt.pcap.empty()) {
    source = pipeline::make_pcap_source(opt.pcap);
  } else if (!opt.scenario.empty()) {
    // Guaranteed non-null: run() validated the name before calling.
    const ScenarioSpec* spec = find_scenario(opt.scenario);
    source = pipeline::make_synthetic_source(spec->make(
        opt.scenario_seed, Duration::from_seconds(opt.seconds), opt.gen_pps));
  } else {
    TraceConfig config = TraceConfig::caida_like_day(
        static_cast<int>(*opt.synthetic_seed), Duration::from_seconds(opt.seconds),
        opt.gen_pps);
    source = pipeline::make_synthetic_source(config);
  }
  if (opt.pps > 0.0 || opt.speed > 0.0) {
    source = pipeline::make_paced_source(std::move(source),
                                         {.target_pps = opt.pps, .speed = opt.speed});
  }
  return source;
}

/// Replica factory for --engine; shard seeds follow the sharded-rhhh
/// convention (base + shard index).
pipeline::ShardPlan shard_plan(const Options& opt) {
  pipeline::ShardPlan plan;
  plan.shards = opt.shards;
  return plan;
}

/// The summary --engine names: a Memento sliding detector over --window,
/// or an engine (behind the --shards router for the built-ins). Null for
/// an unknown name or a registry engine with --shards > 1.
std::unique_ptr<HhhSummary> build_engine(const Options& opt) {
  constexpr std::uint64_t kRhhhSeed = 42;
  const Duration window = Duration::from_seconds(opt.window_s);
  if (opt.engine == "memento") {
    return std::make_unique<MementoHhhDetector>(MementoHhhParams{.window = window});
  }
  if (opt.engine == "memento_v6") {
    return std::make_unique<MementoHhhV6Detector>(
        MementoHhhParams{.hierarchy = Hierarchy::v6_byte_granularity(), .window = window});
  }
  if (opt.engine == "exact") {
    return pipeline::route_shards(shard_plan(opt), [](std::size_t) {
      return make_exact_engine(Hierarchy::byte_granularity());
    });
  }
  if (opt.engine == "exact_v6") {
    return pipeline::route_shards(shard_plan(opt), [](std::size_t) {
      return make_exact_engine(Hierarchy::v6_byte_granularity());
    });
  }
  if (opt.engine == "rhhh") {
    return pipeline::route_shards(shard_plan(opt), [](std::size_t shard) {
      return std::make_unique<RhhhEngine>(
          RhhhEngine::Params{.counters_per_level = 1024, .seed = kRhhhSeed + shard});
    });
  }
  if (opt.engine == "rhhh_v6") {
    return pipeline::route_shards(shard_plan(opt), [](std::size_t shard) {
      return std::make_unique<RhhhV6Engine>(
          RhhhParams{.hierarchy = Hierarchy::v6_byte_granularity(),
                     .counters_per_level = 1024,
                     .seed = kRhhhSeed + shard});
    });
  }
  // Any other name resolves through the library engine registry — the
  // same configuration the accuracy baseline scores, so a live replay of
  // a registry engine reproduces the baseline's detector exactly. The
  // spec's factory builds one complete engine (some are internally
  // sharded already), so the external --shards router stays off.
  if (const EngineSpec* spec = find_engine(opt.engine); spec != nullptr && opt.shards == 1) {
    return spec->make();
  }
  return nullptr;
}

int run(const Options& opt) {
  if (!opt.scenario.empty() && find_scenario(opt.scenario) == nullptr) {
    std::string presets;
    for (const auto& name : scenario_names()) presets += " " + name;
    HHH_ERROR << "error: unknown scenario '" << opt.scenario << "'; presets:" << presets;
    return 1;
  }
  const bool sliding_engine = opt.engine == "memento" || opt.engine == "memento_v6";
  if (sliding_engine && opt.step_s <= 0.0) {
    HHH_ERROR << "error: --engine=" << opt.engine
              << " is a sliding detector; give its report cadence with --step=S";
    return 1;
  }
  if (!sliding_engine && opt.step_s > 0.0) {
    HHH_ERROR << "error: --step needs a sliding --engine (memento | memento_v6)";
    return 1;
  }
  if (sliding_engine && opt.shards != 1) {
    HHH_ERROR << "error: sliding engines support --shards=1 only";
    return 1;
  }

  auto summary = build_engine(opt);
  if (!summary) {
    if (find_engine(opt.engine) != nullptr && opt.shards > 1) {
      HHH_ERROR << "error: --engine=" << opt.engine
                << " is an engine-registry configuration and supports --shards=1 only";
    } else {
      std::string names;
      for (const auto& name : engine_names()) names += " " + name;
      HHH_ERROR << "error: unknown engine '" << opt.engine
                << "'; built-ins: exact exact_v6 rhhh rhhh_v6; sliding: memento "
                << "memento_v6 (need --step); registry:" << names;
    }
    return 1;
  }
  auto stage = pipeline::make_engine_stage(std::move(summary));

  pipeline::PipelineConfig config;
  config.phi = opt.threshold_bytes > 0.0 ? 1.0 : opt.phi;
  config.threshold_bytes = opt.threshold_bytes;
  config.wall_clock = opt.wall_clock;
  config.max_windows = opt.max_windows;
  // Flush the final partial window: traffic after the last boundary is
  // still an epoch the collector should see. Sliding schedules have no
  // partial-window notion — every report covers the trailing window.
  config.flush_open_window = opt.step_s <= 0.0;

  std::unique_ptr<pipeline::WindowPolicy> policy;
  try {
    policy = opt.step_s > 0.0
                 ? pipeline::make_sliding_policy(Duration::from_seconds(opt.window_s),
                                                 Duration::from_seconds(opt.step_s))
                 : pipeline::make_disjoint_policy(Duration::from_seconds(opt.window_s));
  } catch (const std::invalid_argument& e) {
    HHH_ERROR << "error: " << e.what();
    return 1;
  }
  pipeline::Pipeline pipe(open_source(opt), std::move(stage), std::move(policy), config);
  std::optional<pipeline::FrameRing> ring;
  if (opt.retain > 0) {
    ring.emplace(opt.retain);
    pipe.add_sink(pipeline::make_frame_ring_sink(&*ring));
  }
  std::unique_ptr<service::VantageClient> client;
  if (opt.connect) {
    // A broken collector socket must surface as send_epoch's typed retry
    // failure, not a SIGPIPE kill.
    std::signal(SIGPIPE, SIG_IGN);
    client = std::make_unique<service::VantageClient>(service::VantageClientOptions{
        .endpoint = *opt.connect,
        .name = opt.vantage,
        .window_ns = static_cast<std::int64_t>(opt.window_s * 1e9),
        .retry_for_s = opt.retry_s,
        .ack_timeout_s = opt.retry_s});
    pipe.add_sink(std::make_unique<ConnectSink>(*client));
  } else if (opt.out == "-") {
    pipe.add_sink(pipeline::make_snapshot_stream_sink(stdout));
  } else {
    pipe.add_sink(pipeline::make_snapshot_stream_sink(opt.out));
  }
  if (opt.table) pipe.add_sink(pipeline::make_table_sink(stderr, 5));
  // Bytes the engine actually accounted, summed across window reports.
  // The pipeline's RunStats counts delivered packets; an engine of the
  // wrong address family silently ignores them, and shipping frames of
  // empty engines while claiming success would be a silent total loss.
  std::uint64_t accounted_bytes = 0;
  pipe.add_sink(pipeline::make_callback_sink(
      [&](const WindowReport& r) { accounted_bytes += r.hhhs.total_bytes; }));

  const pipeline::RunStats stats = pipe.run();
  const std::string dest = opt.connect   ? opt.connect->to_string()
                           : opt.out == "-" ? std::string("stdout")
                                            : opt.out;
  HHH_INFO << "hhh-live: " << with_thousands(stats.packets) << " packets, "
           << human_bytes(stats.bytes) << ", " << stats.windows_closed
           << " window frame(s) -> " << dest;
  if (opt.query_interval) {
    // Served entirely from the retained frames — the same bytes the
    // output stream carries, so any consumer can reproduce the answer
    // offline by merging the frames inside the interval.
    const auto [t1, t2] = *opt.query_interval;
    const pipeline::IntervalReport interval = ring->query_interval(
        TimePoint::from_seconds(t1), TimePoint::from_seconds(t2), opt.phi);
    if (interval.frames_merged == 0) {
      std::fprintf(stderr,
                   "interval [%.2fs, %.2fs]: no retained frame lies fully inside "
                   "(ring holds %zu frame(s); raise --retain or widen the interval)\n",
                   t1, t2, ring->size());
    } else {
      std::fprintf(stderr,
                   "interval [%.2fs, %.2fs]: %zu frame(s) merged (group %s), covering "
                   "[%.2fs, %.2fs): %zu HHH(s), %s total\n",
                   t1, t2, interval.frames_merged, interval.group.c_str(),
                   interval.covered_start.to_seconds(), interval.covered_end.to_seconds(),
                   interval.hhhs.size(),
                   human_bytes(interval.hhhs.total_bytes).c_str());
      for (const auto& item : interval.hhhs.items()) {
        std::fprintf(stderr, "  %-44s %12s conditioned\n",
                     item.prefix.to_string().c_str(),
                     human_bytes(item.conditioned_bytes).c_str());
      }
    }
  }
  if (!opt.metrics_out.empty()) {
    // What this vantage's run cost: the process registry holds the
    // pipeline/engine/sink series the run populated.
    obs::write_json_file(opt.metrics_out, obs::MetricsRegistry::process().snapshot());
  }
  if (client) {
    // The bye/ack handshake is the delivery receipt: the collector has
    // read (and deduplicated) everything this vantage journaled.
    if (!client->finish()) {
      HHH_ERROR << "error: vantage " << opt.vantage << ": collector at "
                << opt.connect->to_string() << " never acknowledged the final handshake";
      return 2;
    }
    if (client->reconnects() > 0) {
      HHH_INFO << "hhh-live: vantage " << opt.vantage << " reconnected "
               << client->reconnects() << " time(s)";
    }
  }
  if (stats.bytes > 0 && accounted_bytes == 0) {
    HHH_ERROR << "error: the " << opt.engine << " engine accounted 0 of "
              << human_bytes(stats.bytes) << " delivered — address-family/engine "
              << "mismatch? (try --engine="
              << (opt.engine.rfind("_v6") != std::string::npos ? "exact" : "exact_v6")
              << ")";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 1;
  }
  // Tool summaries are info-level and visible by default; HHH_LOG=warn
  // (or off) silences them without touching the frame stream on stdout.
  set_default_log_level(LogLevel::kInfo);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    HHH_ERROR << "error: " << e.what();
    return 2;
  }
}
