// Figure 3 — "Similarities of reported HHHs to the baseline window."
//
// Against a 10 s baseline tiling, windows 10..100 ms shorter (same start
// point, overlapping pairs only) are compared by the Jaccard coefficient of
// the per-window HHH sets over a 20-minute trace at phi = 5 %.
//
// The paper reports the CDFs of the per-pair similarity; its quoted
// readings: at delta = 100 ms the sets differ by ~25 % (J <= 0.75) and at
// delta = 40 ms by ~11 % (J <= 0.89), each "for at least 70 % of the cases".
// This bench prints the per-delta CDF summary and those two probe points.
#include <cstdio>

#include "analysis/hidden_analysis.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  // Paper: a single 20-minute trace. The drift mechanism (window i of the
  // shrunk tiling starts i*delta earlier) needs the full window count, so
  // the default matches the paper's duration.
  auto opt = BenchOptions::parse(argc, argv, /*default_seconds=*/1200.0,
                                 /*default_pps=*/2500.0);
  opt.days = 1;
  if (opt.seconds_per_day > 1200.0) opt.seconds_per_day = 1200.0;  // --full == paper

  const auto packets = bench::day_trace(0, opt);
  bench::print_header("Figure 3: HHH-set similarity under window micro-variation", opt,
                      packets.size());

  WindowSimilarityParams params;
  params.baseline_window = Duration::seconds(10);
  params.phi = 0.05;
  for (int ms = 10; ms <= 100; ms += 10) params.deltas.push_back(Duration::millis(ms));

  const auto result = analyze_window_similarity(packets, params);

  Table table({"delta", "pairs", "mean J", "p10", "median", "p90",
               "P[J<=0.75]", "P[J<=0.89]"});
  for (const auto& point : result.points) {
    table.add_row({str_format("%ldms", static_cast<long>(point.delta.to_millis())),
                   std::to_string(point.pairs), fixed(point.jaccard.mean(), 3),
                   fixed(point.jaccard.quantile(0.1), 3),
                   fixed(point.jaccard.quantile(0.5), 3),
                   fixed(point.jaccard.quantile(0.9), 3),
                   percent(point.jaccard.fraction_at_most(0.75)),
                   percent(point.jaccard.fraction_at_most(0.89))});
  }
  std::fputs(table.to_console().c_str(), stdout);

  const auto& d40 = result.points[3];   // 40 ms
  const auto& d100 = result.points[9];  // 100 ms
  std::printf("\npaper probes: delta=100ms -> J<=0.75 for %s of pairs (paper: >=70%%); "
              "delta=40ms -> J<=0.89 for %s of pairs (paper: >=70%%)\n",
              percent(d100.jaccard.fraction_at_most(0.75)).c_str(),
              percent(d40.jaccard.fraction_at_most(0.89)).c_str());
  std::printf("shape: mean similarity must fall as delta grows "
              "(%s at 10ms -> %s at 100ms)\n",
              fixed(result.points[0].jaccard.mean(), 3).c_str(),
              fixed(result.points[9].jaccard.mean(), 3).c_str());
  if (!opt.csv_path.empty()) {
    std::printf("csv written to %s\n", table.write_csv(opt.csv_path).c_str());
  }
  return 0;
}
