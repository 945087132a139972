#include "fleet.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "core/rhhh.hpp"
#include "layers.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/window_policy.hpp"
#include "service/epoch_aligner.hpp"
#include "service/frame_stream.hpp"
#include "service/merge.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::e2e {

namespace {

/// Every vantage is healthy, so epochs close on completeness; the grace
/// only has to outlast the slowest vantage's lag behind the fastest.
constexpr std::int64_t kGraceNs = 30'000'000'000;
/// VantageClient reconnect and ack budgets: generous, because a vantage
/// may wait behind a busy collector for its bye to be read.
constexpr double kClientBudgetS = 60.0;
/// A pass that has not finished by then is wedged; the run is abandoned.
constexpr auto kPassTimeout = std::chrono::seconds(120);
/// Track id of the collector replay in span logs.
constexpr int kReplayTrack = 100;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A /proc/self/status field in kB ("VmRSS:", "VmHWM:"); 0 when absent.
double status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::atof(line.c_str() + field.size());
  }
  return 0.0;
}

[[noreturn]] void abandon(const std::string& why) {
  std::fprintf(stderr, "hhh_e2e: %s; abandoning the run\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

std::string vantage_name(std::size_t v) {
  std::string name = "v";
  name += std::to_string(v);
  return name;
}

/// The engine `hhh-live --engine=... --shards=...` would build.
std::unique_ptr<HhhEngine> make_engine(const Workload& w, std::size_t vantage) {
  switch (w.engine) {
    case EngineKind::kExact:
      return make_exact_engine(Hierarchy::byte_granularity());
    case EngineKind::kExactV6:
      return make_exact_engine(Hierarchy::v6_byte_granularity());
    case EngineKind::kRhhh:
      return std::make_unique<RhhhEngine>(
          RhhhEngine::Params{.counters_per_level = 512, .seed = 42 + vantage});
    case EngineKind::kShardedExact: {
      pipeline::ShardPlan plan;
      plan.shards = 2;
      return pipeline::route_shards(plan, [](std::size_t) {
        return make_exact_engine(Hierarchy::byte_granularity());
      });
    }
  }
  return nullptr;
}

/// One vantage: its pipeline, client and what it observed. Members are
/// destroyed in reverse order, so the pipeline goes before everything it
/// borrows.
struct Vantage {
  std::unique_ptr<SpanLog> spans;         // traced only
  std::unique_ptr<TimedPaceClock> clock;  // traced paced only
  VantageLog log;
  LoopSource* source = nullptr;  // owned by the pipeline
  std::unique_ptr<service::VantageClient> client;
  std::unique_ptr<pipeline::Pipeline> pipe;
  pipeline::RunStats stats;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::string error;
};

/// One epoch as the collector's callback saw it.
struct Observed {
  EpochAnswer answer;
  std::int64_t reveal_ns = 0;
  std::int64_t first_seen_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<service::EpochContribution> frames;  // traced only
};

/// State shared between the pass's threads.
struct Progress {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t vantages_done = 0;
  std::size_t revealed = 0;
  std::vector<Observed> epochs;
  std::string error;
};

template <typename Fn>
auto timed(SpanLog& log, Layer layer, Fn&& fn) {
  ScopedSpan span(&log, layer);
  return fn();
}

/// Replay the frames the live collector merged through the same public
/// calls its poll loop makes, one epoch at a time on one thread, timing
/// each call.
void replay_collector(const Workload& w, const service::Thresholds& thresholds,
                      std::int64_t window_ns, std::vector<Observed>& epochs,
                      const std::string& dir, SpanLog& log) {
  service::EpochAligner aligner(service::AlignerParams{.window_ns = window_ns,
                                                       .grace_ns = kGraceNs,
                                                       .expected_vantages = w.vantages,
                                                       .skew_tolerance_ns = 0});
  for (std::size_t v = 0; v < w.vantages; ++v) aligner.vantage_up(vantage_name(v));
  service::MergeLedger cumulative(thresholds);
  for (std::size_t index = 0; index < epochs.size(); ++index) {
    Observed& o = epochs[index];
    if (o.frames.empty()) continue;  // never revealed
    log.set_epoch(static_cast<std::int64_t>(index));
    ScopedSpan epoch_span(&log, Layer::kReplay);
    for (const auto& c : o.frames) {
      const auto bytes = service::build_epoch(o.start_ns, o.end_ns, c.seq, c.inner);
      const service::EpochFrame frame = timed(log, Layer::kParse, [&] {
        return service::parse_epoch(wire::parse_frame(bytes));
      });
      timed(log, Layer::kAlign, [&] {
        aligner.offer(c.vantage, frame.start_ns, frame.end_ns, frame.seq, frame.inner, now_ns());
      });
    }
    std::vector<service::ReadyEpoch> ready =
        timed(log, Layer::kAlign, [&] { return aligner.drain(now_ns()); });
    for (const service::ReadyEpoch& epoch : ready) {
      service::MergeLedger ledger(thresholds);
      for (const auto& c : epoch.frames) {
        const wire::FrameView inner =
            timed(log, Layer::kParse, [&] { return wire::parse_frame(c.inner); });
        service::Scope scope =
            timed(log, Layer::kDecode, [&] { return service::decode_scope(inner, c.vantage); });
        timed(log, Layer::kFold, [&] { return ledger.fold(std::move(scope)); });
      }
      timed(log, Layer::kMergeReport, [&] { return ledger.report(); });
      timed(log, Layer::kGroupFrames, [&] { return ledger.save_group_frames(); });
      timed(log, Layer::kAbsorb, [&] { cumulative.absorb(std::move(ledger)); });
      if (w.checkpoint) {
        timed(log, Layer::kCheckpoint, [&] {
          std::vector<std::uint8_t> payload;
          wire::Writer writer(payload);
          cumulative.save_state(writer);
          aligner.save_state(writer);
          wire::write_file(dir + "/replay.ckpt",
                           wire::build_frame(wire::SnapshotKind::kCollectorCheckpoint, payload));
        });
      }
    }
    o.frames = {};
  }
}

std::size_t intersection_size(const std::vector<PrefixKey>& a, const std::vector<PrefixKey>& b) {
  std::size_t n = 0;
  for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace

double resident_kb() {
  malloc_trim(0);
  return status_kb("VmRSS:");
}

PassResult run_pass(const Workload& w, const Traffic& traffic, const PassOptions& opt) {
  PassResult r;
  std::filesystem::remove_all(opt.dir);
  std::filesystem::create_directories(opt.dir);
  const std::size_t n_epochs = opt.loops * traffic.epochs_per_loop;
  const std::int64_t window_ns = Duration::from_seconds(w.window_s).ns();
  const service::Thresholds thresholds{.threshold_bytes = traffic.threshold_bytes};
  service::Endpoint endpoint;
  endpoint.kind = service::Endpoint::Kind::kUnix;
  endpoint.path = opt.dir + "/c.sock";
  Progress progress;
  progress.epochs.resize(n_epochs);

  // Reset VmHWM to the current RSS, so the pass's peak is its own.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";

  // ------------------------------------------------------------ set-up
  const std::int64_t setup_begin = now_ns();
  service::CollectorOptions options;
  options.listen = {endpoint};
  options.window_ns = window_ns;
  options.grace_ns = kGraceNs;
  options.expected_vantages = w.vantages;
  options.thresholds = thresholds;
  if (w.checkpoint) options.checkpoint_path = opt.dir + "/collector.ckpt";
  service::CollectorService collector(options);
  collector.set_epoch_callback([&progress, traced = opt.traced](
                                   const service::ReadyEpoch& epoch,
                                   const service::LedgerReport& report) {
    const std::int64_t t = now_ns();
    PrefixUnion merged;
    for (const auto& group : report.groups) merged.add(group.merged.prefixes());
    std::lock_guard lock(progress.mu);
    if (epoch.index < 0 || static_cast<std::size_t>(epoch.index) >= progress.epochs.size() ||
        progress.epochs[static_cast<std::size_t>(epoch.index)].answer.revealed) {
      progress.error = "collector revealed unexpected epoch " + std::to_string(epoch.index);
      progress.cv.notify_all();
      return;
    }
    Observed& o = progress.epochs[static_cast<std::size_t>(epoch.index)];
    o.answer.revealed = true;
    o.answer.merged = merged.values();
    o.answer.hidden = report.hidden;
    o.reveal_ns = t;
    o.first_seen_ns = epoch.first_seen_ns;
    o.start_ns = epoch.start_ns;
    o.end_ns = epoch.end_ns;
    if (traced) o.frames = epoch.frames;
    ++progress.revealed;
    progress.cv.notify_all();
  });
  collector.start();

  std::vector<std::unique_ptr<Vantage>> vantages;
  for (std::size_t v = 0; v < w.vantages; ++v) {
    auto s = std::make_unique<Vantage>();
    if (opt.traced) s->spans = std::make_unique<SpanLog>(static_cast<int>(v));
    auto loop = std::make_unique<LoopSource>(traffic.vantages[v], traffic.loop_span, opt.loops);
    s->source = loop.get();
    std::unique_ptr<pipeline::PacketSource> source = std::move(loop);
    if (w.speed > 0.0) {
      if (opt.traced) s->clock = std::make_unique<TimedPaceClock>(*s->spans);
      source = pipeline::make_paced_source(std::move(source), {.speed = w.speed}, s->clock.get());
    }
    std::unique_ptr<pipeline::MeasurementStage> stage =
        pipeline::make_engine_stage(make_engine(w, v));
    if (opt.traced) {
      source = std::make_unique<TimedSource>(std::move(source), *s->spans);
      stage = std::make_unique<TimedStage>(std::move(stage), *s->spans);
    }
    s->client = std::make_unique<service::VantageClient>(
        service::VantageClientOptions{.endpoint = endpoint,
                                      .name = vantage_name(v),
                                      .window_ns = window_ns,
                                      .retry_for_s = kClientBudgetS,
                                      .ack_timeout_s = kClientBudgetS});
    // hhh-live's absolute-threshold configuration.
    pipeline::PipelineConfig config;
    config.phi = 1.0;
    config.threshold_bytes = traffic.threshold_bytes;
    config.flush_open_window = true;
    s->pipe = std::make_unique<pipeline::Pipeline>(
        std::move(source), std::move(stage),
        pipeline::make_disjoint_policy(Duration::from_seconds(w.window_s)), config);
    s->pipe->add_sink(std::make_unique<EpochSink>(*s->client, s->log, s->spans.get()));
    vantages.push_back(std::move(s));
  }

  std::thread collector_thread([&] {
    const double cpu0 = thread_cpu_s();
    try {
      collector.run();
    } catch (const std::exception& e) {
      std::lock_guard lock(progress.mu);
      progress.error = std::string("collector: ") + e.what();
      progress.cv.notify_all();
    }
    r.collector_cpu_s = thread_cpu_s() - cpu0;
  });
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t v = 0; v < w.vantages; ++v) {
    threads.emplace_back([&, v] {
      Vantage& s = *vantages[v];
      go.wait();
      const std::int64_t t0 = now_ns();
      try {
        ScopedSpan root(s.spans.get(), Layer::kVantage);
        s.stats = s.pipe->run();
        ScopedSpan send(s.spans.get(), Layer::kSend);
        if (!s.client->finish()) s.error = "the collector never acknowledged the bye";
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
      s.cpu_s = thread_cpu_s();
      std::lock_guard lock(progress.mu);
      ++progress.vantages_done;
      if (!s.error.empty() && progress.error.empty()) {
        progress.error = vantage_name(v) + ": " + s.error;
      }
      progress.cv.notify_all();
    });
  }
  go.count_down();

  // ------------------------------------------------------------ stream
  const auto deadline = std::chrono::steady_clock::now() + kPassTimeout;
  {
    std::unique_lock lock(progress.mu);
    if (!progress.cv.wait_until(lock, deadline,
                                [&] { return progress.vantages_done == w.vantages; })) {
      abandon(w.name + ": vantages still streaming after " +
              std::to_string(kPassTimeout.count()) + "s");
    }
    progress.cv.wait_until(lock, deadline, [&] {
      return progress.revealed == n_epochs || !progress.error.empty();
    });
  }
  for (auto& th : threads) th.join();
  collector.stop();
  collector_thread.join();
  r.stats = collector.stats();

  // ------------------------------------------------------------ results
  std::int64_t setup_end = 0;
  std::int64_t first_packet = std::numeric_limits<std::int64_t>::max();
  for (const auto& s : vantages) {
    setup_end = std::max(setup_end, s->source->first_pull_ns());
    first_packet = std::min(first_packet, s->source->first_pull_ns());
    r.packets += s->stats.packets;
    r.vantage_cpu_s += s->cpu_s;
    r.vantage_wall_s += s->wall_s;
    r.frames += s->log.frames;
    r.frame_bytes += s->log.frame_bytes;
  }
  r.setup_s = static_cast<double>(setup_end - setup_begin) * 1e-9;
  const std::size_t envelope_bytes = service::build_epoch(0, 1, 0, {}).size();
  r.journal_bytes = r.frame_bytes + r.frames * envelope_bytes;
  r.error = progress.error;
  r.epochs = n_epochs;
  const service::CollectorStats& st = r.stats;
  if (r.error.empty() && st.protocol_errors + st.duplicates_dropped + st.epochs_incomplete +
                                 st.late_folds + st.dirty_disconnects >
                             0) {
    r.error = "collector counted protocol errors, duplicates, incomplete epochs, late "
              "folds or dirty disconnects";
  }

  std::int64_t last_reveal = first_packet;
  r.answers.resize(n_epochs);
  for (std::size_t i = 0; i < n_epochs; ++i) {
    Observed& o = progress.epochs[i];
    EpochAnswer& a = r.answers[i];
    a = std::move(o.answer);
    // A lone vantage's merged set must be its own window report.
    if (w.vantages == 1 && i < vantages[0]->log.reports.size()) {
      a.own = std::move(vantages[0]->log.reports[i]);
    }
    if (!a.revealed) continue;
    last_reveal = std::max(last_reveal, o.reveal_ns);
    if (i < opt.warmup) continue;
    // Due time: closed loop, the latest vantage's window close; open loop,
    // the latest vantage's schedule (pacing start + window end / speed), so
    // a vantage running late counts against the reveal.
    std::int64_t close_due = 0;
    std::int64_t schedule_due = 0;
    std::int64_t first_close = std::numeric_limits<std::int64_t>::max();
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      const auto& closes = vantages[v]->log.close_ns;
      if (i < closes.size()) {
        close_due = std::max(close_due, closes[i]);
        first_close = std::min(first_close, closes[i]);
      }
      if (w.speed > 0.0) {
        const std::int64_t trace_ns = static_cast<std::int64_t>(i + 1) * window_ns -
                                      traffic.vantages[v].front().ts.ns();
        const std::int64_t scheduled =
            vantages[v]->source->first_pull_ns() +
            static_cast<std::int64_t>(static_cast<double>(trace_ns) / w.speed);
        schedule_due = std::max(schedule_due, scheduled);
        if (i < closes.size()) {
          r.pace_lag_ms.push_back(static_cast<double>(closes[i] - scheduled) / 1e6);
        }
      }
    }
    const std::int64_t due = w.speed > 0.0 ? schedule_due : close_due;
    r.reveal_ms.push_back(static_cast<double>(o.reveal_ns - due) / 1e6);
    r.close_to_arrival_ms.push_back(static_cast<double>(o.first_seen_ns - first_close) / 1e6);
    r.arrival_to_reveal_ms.push_back(static_cast<double>(o.reveal_ns - o.first_seen_ns) / 1e6);
  }
  r.wall_s = static_cast<double>(last_reveal - first_packet) * 1e-9;

  if (opt.traced) {
    for (const auto& s : vantages) r.vantage_layers.add(*s->spans);
  }
  std::vector<SpanLog> logs;
  if (opt.traced && opt.keep_spans) {
    for (auto& s : vantages) logs.push_back(std::move(*s->spans));
  }
  vantages.clear();

  if (opt.traced) {
    SpanLog replay(kReplayTrack);
    replay_collector(w, thresholds, window_ns, progress.epochs, opt.dir, replay);
    r.replay_layers.add(replay);
    if (opt.keep_spans) {
      logs.push_back(std::move(replay));
      for (std::size_t i = 0; i < n_epochs; ++i) {
        const Observed& o = progress.epochs[i];
        if (r.answers[i].revealed) {
          r.collector_epochs.push_back(CollectorEpochSpan{.index = static_cast<std::int64_t>(i),
                                                          .first_seen_ns = o.first_seen_ns,
                                                          .reveal_ns = o.reveal_ns});
        }
      }
    }
  }
  r.logs = std::move(logs);
  r.peak_rss_kb = status_kb("VmHWM:");
  return r;
}

void score_pass(const Workload& w, std::span<const OracleEpoch> oracle, PassResult& r) {
  const bool fleet = w.vantages > 1;
  r.failed = 0;
  for (std::size_t i = 0; i < r.answers.size(); ++i) {
    const EpochAnswer& a = r.answers[i];
    const OracleEpoch& want = oracle[i % oracle.size()];
    bool ok = a.revealed && r.error.empty();
    if (a.revealed) {
      const auto& expected = fleet ? want.hidden : want.merged;
      const auto& got = fleet ? a.hidden : a.merged;
      r.answer_expected += expected.size();
      r.answer_revealed += got.size();
      r.answer_hits += intersection_size(expected, got);
      if (w.exact()) {
        ok = ok && a.merged == want.merged && a.hidden == want.hidden;
        if (!fleet) ok = ok && a.merged == a.own;
      }
    }
    if (!ok) ++r.failed;
  }
  r.answers = {};
}

}  // namespace hhh::e2e
