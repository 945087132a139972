// §3-T1 — the evaluation the poster calls for: "compare it with existing
// solutions in terms of ... result's accuracy".
//
// Detectors compared against the exact sliding window (the ground truth of
// continuous monitoring, W = 10 s, step 1 s, phi = 1 % and 5 %):
//  * disjoint+exact — the Fig. 1a practice with unlimited per-window state;
//  * disjoint+RHHH  — the practical data-plane engine, reset per window;
//  * TDBF-HHH       — the paper's windowless proposal (half-life = W ln 2),
//                     queried every step, no resets.
//
// Reported per detector: precision/recall/F1 of the union of reports
// against the union of exact sliding reports, and — the paper's point —
// the share of *hidden* HHHs (those the disjoint model misses) that the
// detector recovers.
#include <cstdio>
#include <memory>

#include "analysis/hidden_analysis.hpp"
#include "analysis/metrics.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "core/tdbf_hhh.hpp"
#include "pipeline/pipeline.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv, /*default_seconds=*/240.0,
                                       /*default_pps=*/2500.0);
  const Duration window = Duration::seconds(10);
  const Duration step = Duration::seconds(1);

  std::vector<PacketRecord> packets;
  {
    auto opt_one = opt;
    packets = bench::day_trace(0, opt_one);
  }
  bench::print_header("S3-T1: accuracy of windowless TDBF vs windowed detectors", opt,
                      packets.size());

  Table table({"phi", "detector", "precision", "recall", "f1", "hidden recovered",
               "memory"});

  for (const double phi : {0.01, 0.05}) {
    // Ground truth + hidden set.
    HiddenHhhParams hp;
    hp.window = window;
    hp.step = step;
    hp.phi = phi;
    const auto hidden_result = analyze_hidden_hhh(packets, hp);
    const auto& truth = hidden_result.sliding_prefixes;  // union over steps
    const auto& hidden = hidden_result.hidden;

    struct Row {
      std::string name;
      std::vector<PrefixKey> reported;
      std::size_t memory = 0;
    };
    std::vector<Row> rows;

    // Disjoint windows (the Fig. 1a practice): an engine behind the
    // pipeline's disjoint policy, reset at every boundary.
    const auto disjoint_row = [&](const char* name, std::unique_ptr<HhhEngine> engine) {
      pipeline::PipelineConfig config;
      config.phi = phi;
      config.finish_at = packets.back().ts;
      config.metrics = false;
      pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                              pipeline::make_engine_stage(std::move(engine)),
                              pipeline::make_disjoint_policy(window), config);
      PrefixUnion u;
      pipe.add_sink(pipeline::make_callback_sink(
          [&u](const WindowReport& r) { u.add(r.hhhs.prefixes()); }));
      pipe.run();
      rows.push_back({name, u.values(), pipe.stage().memory_bytes()});
    };
    disjoint_row("disjoint+exact", make_exact_engine(Hierarchy::byte_granularity()));
    // RHHH: the practical sketch, reset per window.
    disjoint_row("disjoint+rhhh", std::make_unique<RhhhEngine>(RhhhEngine::Params{
                                      .counters_per_level = 512, .seed = 0xACC0}));
    // Memento sliding HHH (arXiv 1810.02899, the line of work of ref
    // [1]): sharp window semantics with bounded state, queried at every
    // step like the exact sliding ground truth.
    {
      MementoHhhDetector det({.window = window, .frames = 10, .counters_per_level = 512});
      PrefixUnion u;
      TimePoint next_query = TimePoint() + window;
      for (const auto& p : packets) {
        det.add(p);
        if (p.ts >= next_query) {
          u.add(det.report(p.ts, phi).prefixes());
          next_query += step;
        }
      }
      rows.push_back({"memento-sliding", u.values(), det.memory_bytes()});
    }
    // Windowless TDBF-HHH. Queried 4x per step: a windowless detector can
    // be queried at any instant, which is exactly its operational edge
    // over boundary-locked windows.
    {
      auto params = TimeDecayingHhhDetector::for_window(window);
      params.candidates_per_level = 512;
      params.cells_per_level = 1 << 14;  // comparable memory to the exact engine
      TimeDecayingHhhDetector det(params);
      PrefixUnion u;
      const Duration cadence = step / 4;
      TimePoint next_query = TimePoint() + window;
      for (const auto& p : packets) {
        det.add(p);
        if (p.ts >= next_query) {
          u.add(det.report(p.ts, phi).prefixes());
          next_query += cadence;
        }
      }
      rows.push_back({"tdbf-hhh", u.values(), det.memory_bytes()});
    }

    for (const auto& row : rows) {
      const auto pr = compare_exact(row.reported, truth);
      std::size_t recovered = 0;
      for (const auto& h : hidden) {
        if (std::binary_search(row.reported.begin(), row.reported.end(), h)) ++recovered;
      }
      const double recovery =
          hidden.empty() ? 1.0
                         : static_cast<double>(recovered) / static_cast<double>(hidden.size());
      table.add_row({percent(phi, 0), row.name, fixed(pr.precision(), 3),
                     fixed(pr.recall(), 3), fixed(pr.f1(), 3),
                     str_format("%s (%zu/%zu)", percent(recovery).c_str(), recovered,
                                hidden.size()),
                     human_bytes(row.memory)});
    }
  }

  std::fputs(table.to_console().c_str(), stdout);
  std::printf("\nshape: the window-boundary-free detectors recover the hidden HHHs the "
              "disjoint models miss by construction (rhhh only stumbles on a few via "
              "estimation noise). memento-sliding keeps sharp window semantics with "
              "one sampled level update per packet; tdbf-hhh trades some fidelity for "
              "in-place exponential decay implementable in one RMW per stage "
              "(see bench/resource).\n");
  if (!opt.csv_path.empty()) {
    std::printf("csv written to %s\n", table.write_csv(opt.csv_path).c_str());
  }
  return 0;
}
