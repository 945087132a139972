// Ablation A2 — TDBF half-life vs window equivalence.
//
// DESIGN.md's window-equivalence rule sets half_life = W * ln 2, so that a
// steady rate accumulates the same mass through exponential decay as
// through a W-second window. This ablation sweeps the half-life around
// that point for W = 10 s and measures agreement (F1) between the decayed
// detector's continuous queries and the exact sliding window, plus the
// hidden-HHH recovery rate. The F1 curve should peak near the equivalence
// point; far-too-small half-lives forget too fast (recall drops), far-too-
// large ones blur distinct windows together (precision drops).
#include <cstdio>

#include "analysis/hidden_analysis.hpp"
#include "analysis/metrics.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "core/tdbf_hhh.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  auto opt = BenchOptions::parse(argc, argv, /*default_seconds=*/240.0,
                                 /*default_pps=*/2500.0);
  opt.days = 1;
  const auto packets = bench::day_trace(0, opt);
  bench::print_header("Ablation A2: TDBF half-life vs window equivalence (W=10s, phi=1%)",
                      opt, packets.size());

  const Duration window = Duration::seconds(10);
  const Duration step = Duration::seconds(1);
  const double phi = 0.01;

  HiddenHhhParams hp;
  hp.window = window;
  hp.step = step;
  hp.phi = phi;
  const auto truth_result = analyze_hidden_hhh(packets, hp);
  const auto& truth = truth_result.sliding_prefixes;
  const auto& hidden = truth_result.hidden;

  const double equivalence = window.to_seconds() * 0.6931;
  const double half_lives[] = {1.0, 2.0, 4.0, equivalence, 10.0, 20.0, 40.0};

  Table table({"half-life", "tau_eff (s)", "precision", "recall", "f1", "hidden recovered"});
  for (const double hl : half_lives) {
    auto params = TimeDecayingHhhDetector::for_window(window);
    params.half_life = Duration::from_seconds(hl);
    params.candidates_per_level = 512;
    TimeDecayingHhhDetector det(params);

    PrefixUnion reported;
    TimePoint next_query = TimePoint() + window;
    for (const auto& p : packets) {
      det.add(p);
      if (p.ts >= next_query) {
        reported.add(det.report(p.ts, phi).prefixes());
        next_query += step;
      }
    }
    const auto pr = compare_exact(reported.values(), truth);
    std::size_t recovered = 0;
    for (const auto& h : hidden) {
      if (reported.contains(h)) ++recovered;
    }
    const double recovery =
        hidden.empty() ? 1.0
                       : static_cast<double>(recovered) / static_cast<double>(hidden.size());
    table.add_row({str_format("%.2fs%s", hl, std::abs(hl - equivalence) < 0.01 ? " *" : ""),
                   fixed(hl / 0.6931, 2), fixed(pr.precision(), 3), fixed(pr.recall(), 3),
                   fixed(pr.f1(), 3), percent(recovery)});
  }
  std::fputs(table.to_console().c_str(), stdout);
  std::printf("\n(*) = W*ln2, the DESIGN.md equivalence point. shape: F1 is maximized at or "
              "somewhat below it and collapses toward both extremes; hidden-HHH recovery "
              "grows as the half-life shrinks (reactivity) at the cost of precision.\n");
  if (!opt.csv_path.empty()) {
    std::printf("csv written to %s\n", table.write_csv(opt.csv_path).c_str());
  }
  return 0;
}
