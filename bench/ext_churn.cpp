// Extension E2 — report churn: how stable is what each model tells you?
//
// The paper's complaint is that window-based results are "tightly coupled
// with the traffic and window's characteristics". This bench quantifies
// the coupling as report-stream statistics over the same trace:
//
//  * disjoint windows (W=10 s): consecutive reports share no traffic;
//  * sliding window (W=10 s, step 1 s): consecutive reports share 90 %;
//  * TDBF snapshots (every 1 s): exponentially weighted, no boundary.
//
// Reported per stream: mean consecutive-report Jaccard (stability), mean
// births per report, transient fraction (prefixes that never survive two
// consecutive reports), and the median HHH lifetime.
#include <cstdio>

#include "analysis/churn.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "pipeline/pipeline.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  auto opt = BenchOptions::parse(argc, argv, /*default_seconds=*/240.0,
                                 /*default_pps=*/2500.0);
  opt.days = 1;
  const auto packets = bench::day_trace(0, opt);
  bench::print_header("Extension E2: HHH report churn across detector families", opt,
                      packets.size());

  const Duration window = Duration::seconds(10);
  const Duration step = Duration::seconds(1);
  const double phi = 0.01;

  ChurnAnalysis disjoint_churn;
  ChurnAnalysis sliding_churn;
  ChurnAnalysis tdbf_churn;

  const TimePoint end = packets.back().ts;
  {
    pipeline::PipelineConfig config;
    config.phi = phi;
    config.finish_at = end;
    config.metrics = false;
    pipeline::Pipeline disjoint(
        pipeline::make_span_source(packets),
        pipeline::make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
        pipeline::make_disjoint_policy(window), config);
    disjoint.add_sink(pipeline::make_callback_sink(
        [&](const WindowReport& r) { disjoint_churn.add_report(r.hhhs.prefixes()); }));
    disjoint.run();
  }

  SlidingWindowHhhDetector sliding({.window = window, .step = step, .phi = phi});
  sliding.set_on_report(
      [&](const WindowReport& r) { sliding_churn.add_report(r.hhhs.prefixes()); });
  TimeDecayingHhhDetector tdbf(TimeDecayingHhhDetector::for_window(window));

  TimePoint next_snapshot = TimePoint() + window;
  for (const auto& p : packets) {
    sliding.offer(p);
    tdbf.offer(p);
    if (p.ts >= next_snapshot) {
      tdbf_churn.add_report(tdbf.query(p.ts, phi).prefixes());
      next_snapshot += step;
    }
  }
  sliding.finish(end);
  disjoint_churn.finish();
  sliding_churn.finish();
  tdbf_churn.finish();

  Table table({"report stream", "reports", "stability (mean J)", "births/report",
               "transient frac", "median lifetime"});
  const auto row = [&](const char* name, ChurnAnalysis& c) {
    table.add_row({name, std::to_string(c.reports()),
                   c.reports() > 1 ? fixed(c.stability().mean(), 3) : "-",
                   fixed(c.mean_births_per_report(), 2),
                   percent(c.transient_fraction()),
                   c.lifetimes().empty() ? "-" : fixed(c.lifetimes().quantile(0.5), 1)});
  };
  row("disjoint (W=10s)", disjoint_churn);
  row("sliding (W=10s, step 1s)", sliding_churn);
  row("tdbf snapshots (1s)", tdbf_churn);

  std::fputs(table.to_console().c_str(), stdout);
  std::printf("\nshape: consecutive disjoint windows share no traffic, so their reports "
              "churn hardest; the sliding stream (90%% shared content) and the decayed "
              "stream are far more stable — the continuity the paper's §3 asks for.\n");
  if (!opt.csv_path.empty()) {
    std::printf("csv written to %s\n", table.write_csv(opt.csv_path).c_str());
  }
  return 0;
}
