// hhh_e2e — the end-to-end vantage -> collector benchmark.
//
// One process reproduces the service_live_integration deployment: V vantage
// pipelines (the Pipeline + make_engine_stage + make_disjoint_policy +
// VantageClient composition `hhh-live --connect` builds) stream epoch
// frames over a Unix socket into an in-process CollectorService, which
// merges each epoch and reveals the distributed hidden HHH planted in the
// traffic. Every revealed epoch is checked against an independent oracle.
//
// Each workload runs in a child process of its own, as passes — a fresh
// collector, socket, checkpoint directory and fleet each time — until
// --seconds have elapsed (and, for the reveal p90, until at least 100
// latency samples exist). Set-up is also timed alone several times; its
// median is the set-up metric.
// With --trace, every other pass decorates the layers' public calls with
// spans and replays the collector's work afterwards, and the per-layer
// metrics replace the end-to-end ones in the result line.
//
// Usage (run.sh builds the binary first and passes --workdir/--git-sha):
//   hhh_e2e [--workload NAME]... [--workloads=a,b] [--seed N] [--seconds S]
//           [--trace [0|1]] [--trace-out=FILE] [--out=FILE] [--smoke]
//           [--workdir=DIR] [--git-sha=SHA]
// Flags take their value after '=' or as the next argument.
//
// Output: `workload metric value unit` lines, then as the last line one
// JSON object {correct, attempted, failed, metrics}. Exit codes: 0 every
// epoch correct, 1 an epoch failed or a workload could not run, 2 usage.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace {

using namespace hhh;
using namespace hhh::e2e;

/// Set-up-only passes per workload (each pass also times its own set-up).
constexpr std::size_t kSetupRepeats = 20;
/// A run keeps adding passes past --seconds only until this much time
/// went into passes, even if the reveal p90 still lacks samples.
constexpr double kMaxPassSeconds = 120.0;
/// The smoke run's traffic scale.
constexpr double kSmokeScale = 1.0 / 50.0;

/// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {"setup_s",       "e2e_pps",       "reveal_p50_ms",
                                            "reveal_p90_ms", "peak_rss_mb",   "hidden_recall",
                                            "hidden_precision"};

/// The per-layer metrics the result line carries with --trace, in
/// BENCHMARK.json order: those every workload measures.
const std::vector<std::string> kPerLayer = {
    "pipeline.source_s",      "core.ingest_s",         "core.ingest_pps",
    "core.extract_s",         "core.extract_ms_per_close", "core.reset_s",
    "wire.encode_s",          "wire.encode_mb_s",      "wire.frame_mb",
    "service.send_s",         "service.journal_mb",    "pipeline.other_s",
    "vantage.busy_share",     "service.collector_cpu_s", "service.collector_busy_share",
    "service.close_to_arrival_ms_p50", "service.arrival_to_reveal_ms_p50",
    "wire.parse_s",           "wire.decode_s",         "service.fold_s",
    "service.report_s",       "service.group_frames_s", "service.absorb_s",
    "service.align_s",        "service.unattributed_s"};

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_out;
  std::string workdir = "e2e-work";
  std::string git_sha = "unknown";
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: hhh_e2e [--workload NAME]... [--workloads=a,b] [--seed N]\n"
               "               [--seconds S] [--trace [0|1]] [--trace-out=FILE]\n"
               "               [--out=FILE] [--smoke] [--workdir=DIR] [--git-sha=SHA]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(to, " %s", w.name.c_str());
  std::fprintf(to, "\n");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > begin) parts.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return parts;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    // `--trace` alone is a switch; `--trace 0|1` carries a value.
    if (key == "--trace" && !value && i + 1 < argc &&
        (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
      value = argv[++i];
    }
    const auto take = [&]() -> std::optional<std::string> {
      if (value) return value;
      if (i + 1 < argc) return std::string(argv[++i]);
      return std::nullopt;
    };
    char* end = nullptr;
    if (key == "--help" || key == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (key == "--smoke") {
      opt.smoke = true;
    } else if (key == "--trace") {
      if (value && *value != "0" && *value != "1") return false;
      opt.trace = !value || *value == "1";
    } else if (key == "--workload" || key == "--workloads") {
      const auto v = take();
      if (!v) return false;
      for (const auto& name : split(*v, ',')) opt.workloads.push_back(name);
    } else if (key == "--seed") {
      const auto v = take();
      if (!v) return false;
      opt.seed = std::strtoull(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      const auto v = take();
      if (!v) return false;
      opt.seconds = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || opt.seconds < 0.0) return false;
    } else if (key == "--out" || key == "--trace-out" || key == "--workdir" ||
               key == "--git-sha") {
      const auto v = take();
      if (!v || v->empty()) return false;
      (key == "--out"         ? opt.out
       : key == "--trace-out" ? opt.trace_out
       : key == "--workdir"   ? opt.workdir
                              : opt.git_sha) = *v;
    } else {
      std::fprintf(stderr, "hhh_e2e: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  if (opt.workloads.empty()) {
    for (const Workload& w : workloads()) opt.workloads.push_back(w.name);
  }
  for (const auto& name : opt.workloads) {
    if (find_workload(name) == nullptr) {
      std::fprintf(stderr, "hhh_e2e: unknown workload %s\n", name.c_str());
      return false;
    }
  }
  if (opt.smoke) opt.seconds = 0.0;
  return true;
}

/// One workload's results.
struct Outcome {
  const Workload* workload = nullptr;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string error;
  std::vector<Metric> metrics;  ///< end-to-end (untraced passes)
  std::vector<Metric> layers;   ///< per-layer (traced passes)
  std::vector<Metric> info;     ///< run bookkeeping
  bool correct() const { return error.empty() && failed == 0 && attempted > 0; }
};

const Metric* find_metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The per-layer metrics of one traced pass.
std::vector<Metric> layer_metrics(const Workload& w, const PassResult& p) {
  const LayerTimes& v = p.vantage_layers;
  const LayerTimes& c = p.replay_layers;
  const double ingest_s = v.self(Layer::kIngest);
  const double extract_s = v.self(Layer::kExtract);
  const double encode_s = v.self(Layer::kEncode);
  const double frame_mb = static_cast<double>(p.frame_bytes) / 1e6;
  std::vector<Metric> m = {
      {"pipeline.source_s", v.self(Layer::kSource), "s"},
      {"core.ingest_s", ingest_s, "s"},
      {"core.ingest_pps", static_cast<double>(p.packets) / ingest_s, "packets/s"},
      {"core.extract_s", extract_s, "s"},
      {"core.extract_ms_per_close",
       extract_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, v.count(Layer::kExtract))),
       "ms"},
      {"core.reset_s", v.self(Layer::kReset), "s"},
      {"wire.encode_s", encode_s, "s"},
      {"wire.encode_mb_s", frame_mb / encode_s, "MB/s"},
      {"wire.frame_mb", frame_mb / static_cast<double>(std::max<std::uint64_t>(1, p.frames)),
       "MB"},
      {"service.send_s", v.self(Layer::kSend), "s"},
      {"service.journal_mb", static_cast<double>(p.journal_bytes) / 1e6, "MB"},
      // The driver's own work: the vantage's time outside every timed call.
      {"pipeline.other_s", v.self(Layer::kVantage) + v.self(Layer::kSink), "s"},
      {"vantage.busy_share", p.vantage_cpu_s / p.vantage_wall_s, "ratio"},
      {"service.collector_cpu_s", p.collector_cpu_s, "s"},
      {"service.collector_busy_share", p.collector_cpu_s / p.wall_s, "ratio"},
      {"service.close_to_arrival_ms_p50", median(p.close_to_arrival_ms), "ms"},
      {"service.arrival_to_reveal_ms_p50", median(p.arrival_to_reveal_ms), "ms"},
      {"service.backpressure_pauses", static_cast<double>(p.stats.backpressure_pauses), "count"},
  };
  if (w.speed > 0.0) m.push_back({"pipeline.pace_wait_s", v.total(Layer::kPaceWait), "s"});
  const std::vector<std::pair<std::string, Layer>> replay = {
      {"wire.parse_s", Layer::kParse},         {"wire.decode_s", Layer::kDecode},
      {"service.fold_s", Layer::kFold},        {"service.report_s", Layer::kMergeReport},
      {"service.group_frames_s", Layer::kGroupFrames}, {"service.absorb_s", Layer::kAbsorb},
      {"service.align_s", Layer::kAlign},      {"service.checkpoint_s", Layer::kCheckpoint}};
  double attributed = 0.0;
  for (const auto& [name, layer] : replay) {
    if (layer == Layer::kCheckpoint && !w.checkpoint) continue;
    m.push_back({name, c.self(layer), "s"});
    attributed += c.self(layer);
  }
  m.push_back({"service.unattributed_s", p.collector_cpu_s - attributed, "s"});
  return m;
}

/// Median of each metric over several passes, in first-pass order.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out;
  if (passes.empty()) return out;
  for (const Metric& first : passes.front()) {
    std::vector<double> values;
    for (const auto& pass : passes) {
      if (const Metric* m = find_metric(pass, first.name)) values.push_back(m->value);
    }
    out.push_back({first.name, median(values), first.unit});
  }
  return out;
}

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
}

/// The traced passes' self-time table, vantage and collector replay, and
/// how much of the vantage wall the layer rows account for.
void print_self_times(const Workload& w, const std::vector<PassResult>& traced) {
  LayerTimes vantage;
  LayerTimes replay;
  double vantage_wall = 0.0;
  for (const PassResult& p : traced) {
    vantage.add(p.vantage_layers);
    replay.add(p.replay_layers);
    vantage_wall += p.vantage_wall_s;
  }
  std::printf("# %s self time over %zu traced pass(es) (vantage wall %.3f s)\n", w.name.c_str(),
              traced.size(), vantage_wall);
  std::printf("#   %-22s %10s %10s %10s %8s\n", "span", "calls", "total_s", "self_s", "self%");
  for (const LayerTimes* times : {&vantage, &replay}) {
    const double base = times == &vantage ? vantage_wall : times->total(Layer::kReplay);
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      if (times->calls[i] == 0) continue;
      std::printf("#   %-22s %10llu %10.4f %10.4f %7.1f%%\n", layer_name(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(times->calls[i]), times->total_s[i],
                  times->self_s[i], base > 0.0 ? 100.0 * times->self_s[i] / base : 0.0);
    }
  }
  // The vantage root and the bench's own sink are the driver, not a layer.
  const double driver = vantage.self(Layer::kVantage) + vantage.self(Layer::kSink);
  double rows = -driver;
  for (const double s : vantage.self_s) rows += s;
  std::printf("# %s vantage layer rows cover %.1f%% of vantage wall\n", w.name.c_str(),
              vantage_wall > 0.0 ? 100.0 * rows / vantage_wall : 0.0);
}

std::string trace_path(const std::string& base, const std::string& workload, bool several) {
  if (!several) return base;
  const std::filesystem::path p(base);
  return (p.parent_path() / (p.stem().string() + "-" + workload + p.extension().string()))
      .string();
}

/// The first traced pass that kept its spans, as a Chrome trace.
void write_spans(const Workload& w, const Options& opt, const std::vector<PassResult>& traced) {
  for (const PassResult& p : traced) {
    if (p.logs.empty()) continue;
    std::vector<const SpanLog*> logs;
    std::vector<std::string> names;
    for (const SpanLog& log : p.logs) {
      logs.push_back(&log);
      names.push_back(log.track() < static_cast<int>(w.vantages)
                          ? "vantage v" + std::to_string(log.track())
                          : "collector replay");
    }
    const std::string path = trace_path(opt.trace_out, w.name, opt.workloads.size() > 1);
    write_chrome_trace(path, logs, names, p.collector_epochs);
    std::printf("# %s spans of the first traced pass written to %s\n", w.name.c_str(),
                path.c_str());
  }
}

/// The end-to-end metrics of a run's untraced passes (set-up also counts
/// the set-up-only passes). A percentile the samples cannot support, or a
/// ratio with nothing to divide by, is left out.
std::vector<Metric> end_to_end_metrics(const std::vector<PassResult>& plain,
                                       const std::vector<double>& setups, double baseline_kb) {
  std::vector<Metric> m = {{"setup_s", median(setups), "s"}};
  if (plain.empty()) return m;
  std::vector<double> pps;
  std::vector<double> rss;
  std::vector<double> reveal;
  std::uint64_t hits = 0;
  std::uint64_t expected = 0;
  std::uint64_t revealed = 0;
  for (const PassResult& p : plain) {
    pps.push_back(static_cast<double>(p.packets) / p.wall_s);
    rss.push_back(p.peak_rss_kb);
    reveal.insert(reveal.end(), p.reveal_ms.begin(), p.reveal_ms.end());
    hits += p.answer_hits;
    expected += p.answer_expected;
    revealed += p.answer_revealed;
  }
  m.push_back({"e2e_pps", median(pps), "packets/s"});
  if (percentile_supported(reveal.size(), 0.5)) {
    m.push_back({"reveal_p50_ms", quantile(reveal, 0.5), "ms"});
  }
  if (percentile_supported(reveal.size(), 0.9)) {
    m.push_back({"reveal_p90_ms", quantile(reveal, 0.9), "ms"});
  }
  // The smallest pass peak: later passes can only add heap the allocator
  // kept, or an arena it opened under contention, to their own needs.
  m.push_back({"peak_rss_mb",
               (*std::min_element(rss.begin(), rss.end()) - baseline_kb) * 1024.0 / 1e6, "MB"});
  if (expected > 0) {
    m.push_back(
        {"hidden_recall", static_cast<double>(hits) / static_cast<double>(expected), "ratio"});
  }
  if (revealed > 0) {
    m.push_back(
        {"hidden_precision", static_cast<double>(hits) / static_cast<double>(revealed), "ratio"});
  }
  return m;
}

Outcome run_workload(const Workload& w, const Options& opt) {
  Outcome out;
  out.workload = &w;
  Traffic traffic;
  try {
    traffic = make_traffic(w, opt.seed, opt.smoke ? kSmokeScale : 1.0);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  const double baseline_kb = resident_kb();
  const std::string dir = opt.workdir + "/" + w.name;
  const bool tracing = opt.trace || opt.smoke;
  const std::size_t epochs_per_pass = w.loops * traffic.epochs_per_loop;
  const std::size_t warmup = std::min<std::size_t>(10, epochs_per_pass / 4);

  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupRepeats && out.error.empty(); ++i) {
    const PassResult s = run_pass(w, traffic,
                                  PassOptions{.dir = dir,
                                              .loops = 0,
                                              .warmup = 0,
                                              .traced = false,
                                              .keep_spans = false});
    out.error = s.error;
    setups.push_back(s.setup_s);
  }

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::size_t samples = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0; out.error.empty(); ++n) {
    const bool trace_pass = tracing && n % 2 == 1;
    PassResult p = run_pass(w, traffic,
                            PassOptions{.dir = dir,
                                        .loops = w.loops,
                                        .warmup = warmup,
                                        .traced = trace_pass,
                                        .keep_spans = trace_pass && traced.empty() &&
                                                      !opt.trace_out.empty()});
    setups.push_back(p.setup_s);
    out.attempted += p.epochs;
    out.error = p.error;
    if (!trace_pass) samples += p.reveal_ms.size();
    (trace_pass ? traced : plain).push_back(std::move(p));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const bool both_kinds = !tracing || !traced.empty();
    const bool p90_samples = tracing || percentile_supported(samples, 0.9);
    if ((elapsed >= opt.seconds && both_kinds && p90_samples) || elapsed >= kMaxPassSeconds) {
      break;
    }
  }
  std::filesystem::remove_all(dir);

  // The oracle comes last, so its heap never sits under a pass's RSS.
  Oracle oracle;
  try {
    oracle = make_oracle(w, traffic);
  } catch (const std::exception& e) {
    if (out.error.empty()) out.error = e.what();
  }
  for (auto* passes : {&plain, &traced}) {
    for (PassResult& p : *passes) {
      if (!oracle.epochs.empty()) score_pass(w, oracle.epochs, p);
      out.failed += oracle.epochs.empty() ? p.epochs : p.failed;
    }
  }

  out.metrics = end_to_end_metrics(plain, setups, baseline_kb);
  std::vector<std::vector<Metric>> per_pass;
  for (const PassResult& p : traced) per_pass.push_back(layer_metrics(w, p));
  out.layers = median_metrics(per_pass);

  std::vector<double> walls;
  std::vector<double> pace_lag;
  for (const PassResult& p : plain) {
    walls.push_back(p.wall_s);
    pace_lag.insert(pace_lag.end(), p.pace_lag_ms.begin(), p.pace_lag_ms.end());
  }
  out.info = {
      {"epochs_attempted", static_cast<double>(out.attempted), "count"},
      {"epochs_failed", static_cast<double>(out.failed), "count"},
      {"passes", static_cast<double>(plain.size()), "count"},
      {"traced_passes", static_cast<double>(traced.size()), "count"},
      {"reveal_samples", static_cast<double>(samples), "count"},
      {"setup_samples", static_cast<double>(setups.size()), "count"},
      {"epochs_per_pass", static_cast<double>(epochs_per_pass), "count"},
      {"pass_wall_s", median(walls), "s"},
      {"generate_s", traffic.generate_s, "s"},
      {"oracle_s", oracle.seconds, "s"},
      {"planted_hidden_share", oracle.planted_hidden_share, "ratio"},
  };
  if (!pace_lag.empty()) {
    out.info.push_back({"pace_lag_ms_p50", quantile(pace_lag, 0.5), "ms"});
    out.info.push_back({"pace_lag_ms_max", quantile(pace_lag, 1.0), "ms"});
  }
  if (const Metric* base = find_metric(out.metrics, "e2e_pps"); base && !traced.empty()) {
    std::vector<double> traced_pps;
    for (const PassResult& p : traced) {
      traced_pps.push_back(static_cast<double>(p.packets) / p.wall_s);
    }
    out.info.push_back(
        {"trace.overhead_share", (base->value - median(traced_pps)) / base->value, "ratio"});
  }

  for (const Metric& m : out.metrics) print_metric(w.name, m);
  for (const Metric& m : out.layers) print_metric(w.name, m);
  for (const Metric& m : out.info) print_metric(w.name, m);
  if (!traced.empty()) print_self_times(w, traced);
  if (!out.error.empty()) std::printf("# %s error: %s\n", w.name.c_str(), out.error.c_str());

  if (!opt.trace_out.empty()) write_spans(w, opt, traced);
  std::fflush(stdout);
  return out;
}

/// An Outcome as text lines for the pipe from a workload's child process:
/// `attempted N`, `failed N`, `error TEXT`, `<group> NAME UNIT VALUE`.
std::string serialize(const Outcome& o) {
  std::string text = "attempted " + std::to_string(o.attempted) + "\nfailed " +
                     std::to_string(o.failed) + "\n";
  std::string error = o.error;
  std::replace(error.begin(), error.end(), '\n', ' ');
  if (!error.empty()) text += "error " + error + "\n";
  const std::pair<const char*, const std::vector<Metric>*> groups[] = {
      {"metric", &o.metrics}, {"layer", &o.layers}, {"info", &o.info}};
  for (const auto& [group, metrics] : groups) {
    for (const Metric& m : *metrics) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      text += std::string(group) + " " + m.name + " " + m.unit + " " + value + "\n";
    }
  }
  return text;
}

void deserialize(const std::string& text, Outcome& o) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "attempted") {
      in >> o.attempted;
    } else if (kind == "failed") {
      in >> o.failed;
    } else if (kind == "error") {
      o.error = line.substr(6);
    } else {
      Metric m;
      std::string value;  // strtod, unlike operator>>, reads "nan" and "inf"
      in >> m.name >> m.unit >> value;
      m.value = std::strtod(value.c_str(), nullptr);
      (kind == "metric" ? o.metrics : kind == "layer" ? o.layers : o.info).push_back(m);
    }
  }
}

/// Run `w` in a child process, so every workload starts from a fresh heap:
/// otherwise one workload's peak RSS would count what the allocator kept
/// from the workloads before it. The child prints its own report lines and
/// sends its Outcome back over a pipe; a child that dies is the workload's
/// error.
Outcome run_in_child(const Workload& w, const Options& opt) {
  Outcome out;
  out.workload = &w;
  int fds[2];
  if (::pipe(fds) != 0) {
    out.error = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Outcome o;
    o.workload = &w;
    try {
      o = run_workload(w, opt);
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    const std::string text = serialize(o);
    for (std::size_t sent = 0; sent < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + sent, text.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    std::fflush(stdout);
    ::_exit(0);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    out.error = std::string("fork: ") + std::strerror(errno);
    return out;
  }
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  deserialize(text, out);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.error = "the workload's process ended with status " + std::to_string(status);
  }
  return out;
}

void append_metrics(std::string& json, const std::vector<Metric>& metrics) {
  json += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}";
}

/// The result document --out writes (compare.py's input).
std::string result_document(const Options& opt, const Host& host,
                            const std::vector<Outcome>& outcomes) {
  std::string j = "{\n  \"benchmark\": \"bench/e2e\",\n  \"host\": {";
  j += "\"hardware_threads\": " + std::to_string(host.hardware_threads);
  j += ", \"cpu_model\": " + json_string(host.cpu_model);
  j += ", \"simd\": " + json_string(host.simd);
  j += ", \"compiler\": " + json_string(host.compiler);
  j += ", \"build_type\": " + json_string(host.build_type);
  j += ", \"git_sha\": " + json_string(host.git_sha);
  j += ", \"seed\": " + std::to_string(opt.seed) + "},\n";
  j += "  \"seconds\": " + json_number(opt.seconds) + ",\n";
  j += std::string("  \"trace\": ") + (opt.trace ? "true" : "false") + ",\n";
  j += "  \"workloads\": {";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    j += i > 0 ? ",\n    " : "\n    ";
    j += json_string(o.workload->name) + ": {\"correct\": " + (o.correct() ? "true" : "false");
    j += ", \"error\": " + json_string(o.error);
    j += ",\n      \"metrics\": ";
    append_metrics(j, o.metrics);
    j += ",\n      \"layers\": ";
    append_metrics(j, o.layers);
    j += ",\n      \"info\": ";
    append_metrics(j, o.info);
    j += "}";
  }
  j += "\n  }\n}\n";
  return j;
}

/// The last stdout line: {correct, attempted, failed, metrics}. With one
/// workload the metric keys are the metric names; with several they are
/// "workload:metric".
std::string result_line(const Options& opt, const std::vector<Outcome>& outcomes) {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  for (const Outcome& o : outcomes) {
    correct = correct && o.correct();
    attempted += o.attempted;
    failed += o.failed;
    const auto& source = opt.trace ? o.layers : o.metrics;
    for (const std::string& name : opt.trace ? kPerLayer : kEndToEnd) {
      if (const Metric* m = find_metric(source, name)) {
        metrics.push_back({outcomes.size() == 1 ? name : o.workload->name + ":" + name, m->value,
                           m->unit});
      }
    }
  }
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": ";
  append_metrics(line, metrics);
  return line + "}";
}

// ------------------------------------------------------------ self-tests

PacketRecord packet_from(IpAddress src, std::uint32_t bytes) {
  PacketRecord p;
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

/// Traffic shaped like examples/multi_vantage: per vantage a local heavy
/// source over T, small background sources, and a share of a distributed
/// sender that stays under T locally but crosses it fleet-wide.
std::vector<PacketRecord> v4_vantage(std::uint8_t v) {
  std::vector<PacketRecord> out;
  for (int i = 0; i < 1500; ++i) out.push_back(packet_from(Ipv4Address::of(10, v + 1, 0, 1), 1000));
  for (std::uint32_t i = 0; i < 300; ++i) {
    out.push_back(packet_from(Ipv4Address::of(static_cast<std::uint8_t>(20 + i % 170),
                                              static_cast<std::uint8_t>(i * 7 % 256),
                                              static_cast<std::uint8_t>(i * 13 % 256),
                                              static_cast<std::uint8_t>(i % 256)),
                              1000));
  }
  for (std::uint32_t host = 0; host < 50; ++host) {
    for (int i = 0; i < 10; ++i) {
      out.push_back(packet_from(
          Ipv4Address::of(203, 0, 113, static_cast<std::uint8_t>(v * 50 + host)), 1000));
    }
  }
  return out;
}

std::vector<PacketRecord> v6_vantage(std::uint64_t v) {
  std::vector<PacketRecord> out;
  for (int i = 0; i < 1200; ++i) {
    out.push_back(packet_from(IpAddress::v6(0x2001'0db8'0000'0000ULL + ((v + 1) << 16), 1), 1000));
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    out.push_back(packet_from(IpAddress::v6(0x2001'0db8'00ff'0000ULL | (i * 7919), i + 1), 1000));
  }
  for (std::uint64_t host = 0; host < 30; ++host) {
    const std::uint64_t id = v * 30 + host + 1;  // one /56 per host under the /48
    for (int i = 0; i < 20; ++i) {
      out.push_back(packet_from(IpAddress::v6(0x2001'0db8'0113'0000ULL | (id << 8), 1), 1000));
    }
  }
  return out;
}

bool check(bool ok, const char* what) {
  std::printf("# self-test %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

bool self_tests() {
  bool ok = true;
  ok &= check(!percentile_supported(99, 0.9) && percentile_supported(100, 0.9),
              "p90 needs >= 100 samples (10 beyond it)");
  ok &= check(!percentile_supported(19, 0.5) && percentile_supported(20, 0.5),
              "p50 needs >= 20 samples");
  ok &= check(!percentile_supported(999, 0.99) && percentile_supported(1000, 0.99),
              "p99 needs >= 1000 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  ok &= check(std::abs(quantile(ramp, 0.5) - 50.5) < 1e-9 &&
                  std::abs(quantile(ramp, 0.9) - 90.1) < 1e-9,
              "quantile interpolates between order statistics");

  std::vector<std::vector<PacketRecord>> traffic;
  std::vector<VantageSlice> slices;
  for (std::uint8_t v = 0; v < 3; ++v) traffic.push_back(v4_vantage(v));
  for (std::uint64_t v = 0; v < 2; ++v) traffic.push_back(v6_vantage(v));
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    slices.push_back({.hierarchy = i < 3 ? Hierarchy::byte_granularity()
                                         : Hierarchy::v6_byte_granularity(),
                      .packets = traffic[i]});
  }
  const OracleEpoch o = oracle_epoch(slices, 1'000'000.0);
  const std::vector<PrefixKey> want = {*PrefixKey::parse("203.0.113.0/24"),
                                       *PrefixKey::parse("2001:db8:113::/48")};
  ok &= check(o.hidden == want, "oracle reveals 203.0.113.0/24 + 2001:db8:113::/48");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  // A collector socket that goes away must surface as VantageClient's
  // typed retry failure, not a SIGPIPE kill (as in hhh-live).
  std::signal(SIGPIPE, SIG_IGN);
  const Host host = host_fingerprint(opt.git_sha);
  std::printf("# host: %u hardware threads, %s, simd %s, %s, %s build, git %s, seed %llu\n",
              host.hardware_threads, host.cpu_model.c_str(), host.simd.c_str(),
              host.compiler.c_str(), host.build_type.c_str(), host.git_sha.c_str(),
              static_cast<unsigned long long>(opt.seed));
  bool ok = true;
  if (opt.smoke) ok = self_tests();

  std::vector<Outcome> outcomes;
  for (const std::string& name : opt.workloads) {
    outcomes.push_back(run_in_child(*find_workload(name), opt));
    ok = ok && outcomes.back().correct();
  }
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    if (!(out << result_document(opt, host, outcomes)).flush()) {
      std::fprintf(stderr, "hhh_e2e: cannot write %s\n", opt.out.c_str());
      ok = false;
    }
  }
  std::error_code ignored;
  std::filesystem::remove(opt.workdir, ignored);  // only if every pass left it empty
  std::printf("%s\n", result_line(opt, outcomes).c_str());
  return ok ? 0 : 1;
}
