// Figure 2 — "Percentage of hidden HHH for three different window sizes
// and thresholds."
//
// Reproduces the paper's headline measurement: for window sizes 5/10/20 s
// and thresholds 1/5/10 % of per-window bytes, compare disjoint windows
// against a sliding window (same length, 1 s step) over four one-hour-like
// traces, and report the fraction of distinct HHHs the disjoint model
// never reports.
//
// Paper shape targets: up to ~34 % hidden overall; 24-34 % at the 1 %
// threshold and 18-24 % at 5 % across all window sizes; less at 10 %.
#include <cstdio>

#include "analysis/hidden_analysis.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  const Duration step = Duration::seconds(1);
  const Duration windows[] = {Duration::seconds(5), Duration::seconds(10),
                              Duration::seconds(20)};
  const double phis[] = {0.01, 0.05, 0.10};

  // Per-day traces are generated once and reused across the 9 cells.
  std::vector<std::vector<PacketRecord>> days;
  std::uint64_t total_packets = 0;
  for (int d = 0; d < opt.days; ++d) {
    days.push_back(bench::day_trace(d, opt));
    total_packets += days.back().size();
  }
  bench::print_header("Figure 2: hidden HHHs, disjoint vs sliding (step 1 s)", opt,
                      total_packets);

  Table table({"window", "threshold", "hidden%(A:distinct)", "hidden%(B:per-window)",
               "hidden", "union", "sliding", "disjoint"});

  // One grid per day (all 9 cells in 3 passes), then per-cell averaging
  // across days exactly as the paper does.
  struct Cell {
    double sum_union_frac = 0.0;
    double sum_windowed_frac = 0.0;
    std::size_t hidden = 0;
    std::size_t unions = 0;
    std::size_t sliding = 0;
    std::size_t disjoint = 0;
  };
  std::vector<std::vector<Cell>> cells(std::size(windows),
                                       std::vector<Cell>(std::size(phis)));
  for (const auto& packets : days) {
    const auto grid = analyze_hidden_hhh_grid(packets, windows, step, phis,
                                              Hierarchy::byte_granularity());
    for (std::size_t w = 0; w < grid.size(); ++w) {
      for (std::size_t f = 0; f < grid[w].size(); ++f) {
        const auto& r = grid[w][f];
        Cell& c = cells[w][f];
        c.sum_union_frac += r.hidden_fraction_of_union();
        c.sum_windowed_frac += r.windowed_hidden_fraction();
        c.hidden += r.hidden.size();
        c.unions += r.union_size;
        c.sliding += r.sliding_prefixes.size();
        c.disjoint += r.disjoint_prefixes.size();
      }
    }
  }

  double max_hidden = 0.0;
  const double n = static_cast<double>(days.size());
  for (std::size_t w = 0; w < std::size(windows); ++w) {
    for (std::size_t f = 0; f < std::size(phis); ++f) {
      const Cell& c = cells[w][f];
      const double frac_union = c.sum_union_frac / n;
      const double frac_windowed = c.sum_windowed_frac / n;
      max_hidden = std::max(max_hidden, frac_windowed);
      table.add_row({str_format("%lds", static_cast<long>(windows[w].to_seconds())),
                     percent(phis[f], 0), percent(frac_union), percent(frac_windowed),
                     std::to_string(c.hidden), std::to_string(c.unions),
                     std::to_string(c.sliding), std::to_string(c.disjoint)});
    }
  }

  std::fputs(table.to_console().c_str(), stdout);
  std::printf("\nheadline (metric B, the paper's setting): up to %s of the HHHs relevant "
              "to a window are hidden from it (paper: up to 34%%)\n",
              percent(max_hidden).c_str());
  std::printf("paper bands (metric B): 24-34%% hidden at phi=1%%, 18-24%% at phi=5%%, "
              "all window sizes; metric A (trace-wide distinct prefixes) is reported "
              "for completeness\n");
  if (!opt.csv_path.empty()) {
    std::printf("csv written to %s\n", table.write_csv(opt.csv_path).c_str());
  }
  return 0;
}
