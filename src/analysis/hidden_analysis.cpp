#include "analysis/hidden_analysis.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "analysis/jaccard.hpp"
#include "core/engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/sliding_window.hpp"
#include "pipeline/pipeline.hpp"

namespace hhh {

namespace {

/// One window model over a non-empty in-memory trace, run the way every
/// vantage runs it: `summary` behind `policy` in a pipeline, closing every
/// report due by the last packet. Returns the number of reports.
std::size_t run_model(std::span<const PacketRecord> packets,
                      std::unique_ptr<HhhSummary> summary,
                      std::unique_ptr<pipeline::WindowPolicy> policy, double phi,
                      std::function<void(const WindowReport&)> on_report) {
  pipeline::PipelineConfig config;
  config.phi = phi;
  config.finish_at = packets.back().ts;
  config.metrics = false;
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(std::move(summary)), std::move(policy),
                          config);
  pipe.add_sink(pipeline::make_callback_sink(std::move(on_report)));
  return pipe.run().windows_closed;
}

}  // namespace

HiddenHhhResult analyze_hidden_hhh(std::span<const PacketRecord> packets,
                                   const HiddenHhhParams& params) {
  HiddenHhhResult result;
  result.params = params;
  if (packets.empty()) return result;

  // Accumulate unions as reports close, so per-window HHH sets need not be
  // retained (there are thousands of sliding reports).
  PrefixUnion disjoint_union;
  PrefixUnion sliding_union;
  result.disjoint_windows = run_model(
      packets, make_exact_engine(params.hierarchy), pipeline::make_disjoint_policy(params.window),
      params.phi, [&](const WindowReport& r) { disjoint_union.add(r.hhhs.prefixes()); });
  result.sliding_reports = run_model(
      packets,
      make_exact_sliding_summary(
          {.window = params.window, .step = params.step, .hierarchy = params.hierarchy}),
      pipeline::make_sliding_policy(params.window, params.step), params.phi,
      [&](const WindowReport& r) { sliding_union.add(r.hhhs.prefixes()); });

  result.disjoint_prefixes = disjoint_union.values();
  result.sliding_prefixes = sliding_union.values();
  result.hidden = prefix_difference(result.sliding_prefixes, result.disjoint_prefixes);

  PrefixUnion all;
  all.add(result.disjoint_prefixes);
  all.add(result.sliding_prefixes);
  result.union_size = all.size();
  return result;
}

namespace {

/// One window-size slice of the grid: one exact sliding summary, all
/// thresholds extracted together at every step boundary. Every disjoint
/// window is the sliding position ending at its boundary, so those sets
/// serve the disjoint model too.
template <typename D>
std::vector<HiddenHhhResult> grid_for_window(std::span<const PacketRecord> packets,
                                             Duration window, Duration step,
                                             std::span<const double> phis,
                                             const Hierarchy& hierarchy) {
  const std::size_t k = phis.size();
  std::vector<HiddenHhhResult> results(k);
  for (std::size_t i = 0; i < k; ++i) {
    results[i].params = HiddenHhhParams{window, step, phis[i], hierarchy};
  }
  if (packets.empty() || window.ns() <= 0 || step.ns() <= 0 ||
      window.ns() % step.ns() != 0) {
    return results;
  }

  BasicExactSlidingSummary<D> sliding({.window = window, .step = step, .hierarchy = hierarchy});
  std::vector<PrefixUnion> sliding_union(k);
  std::vector<PrefixUnion> disjoint_union(k);
  // Metric B state: sliding-revealed prefixes within the current disjoint
  // window, plus the instance accumulators.
  std::vector<PrefixUnion> window_sliding(k);
  std::vector<std::size_t> windowed_hidden(k, 0);
  std::vector<std::size_t> windowed_union(k, 0);
  std::size_t disjoint_windows = 0;
  std::size_t sliding_reports = 0;
  TimePoint step_end = TimePoint() + step;

  const auto close_step = [&] {
    if (step_end >= TimePoint() + window) {
      const auto sets = extract_hhh_multi_relative(sliding.counters(step_end), phis);
      const bool disjoint_end = step_end.ns() % window.ns() == 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto prefixes = sets[i].prefixes();
        sliding_union[i].add(prefixes);
        window_sliding[i].add(prefixes);
        if (!disjoint_end) continue;
        // The window's D_i is one of its own sliding positions, so U_i
        // holds it: |U_i ∪ D_i| = |U_i| and |U_i \ D_i| = |U_i| - |D_i|.
        disjoint_union[i].add(prefixes);
        windowed_union[i] += window_sliding[i].size();
        windowed_hidden[i] += window_sliding[i].size() - prefixes.size();
        window_sliding[i] = PrefixUnion();
      }
      ++sliding_reports;
      if (disjoint_end) ++disjoint_windows;
    }
    step_end += step;
  };

  for (std::size_t i = 0; i < packets.size();) {
    while (step_end <= packets[i].ts) close_step();
    std::size_t j = i + 1;
    while (j < packets.size() && packets[j].ts < step_end) ++j;
    sliding.add_batch(packets.subspan(i, j - i));
    i = j;
  }
  while (step_end <= packets.back().ts) close_step();

  for (std::size_t i = 0; i < k; ++i) {
    results[i].disjoint_windows = disjoint_windows;
    results[i].sliding_reports = sliding_reports;
    results[i].windowed_hidden_instances = windowed_hidden[i];
    results[i].windowed_union_instances = windowed_union[i];
    results[i].disjoint_prefixes = disjoint_union[i].values();
    results[i].sliding_prefixes = sliding_union[i].values();
    results[i].hidden =
        prefix_difference(results[i].sliding_prefixes, results[i].disjoint_prefixes);
    PrefixUnion all;
    all.add(results[i].disjoint_prefixes);
    all.add(results[i].sliding_prefixes);
    results[i].union_size = all.size();
  }
  return results;
}

}  // namespace

std::vector<std::vector<HiddenHhhResult>> analyze_hidden_hhh_grid(
    std::span<const PacketRecord> packets, std::span<const Duration> windows,
    Duration step, std::span<const double> phis, const Hierarchy& hierarchy) {
  std::vector<std::vector<HiddenHhhResult>> grid;
  grid.reserve(windows.size());
  for (const Duration window : windows) {
    grid.push_back(hierarchy.family() == AddressFamily::kIpv4
                       ? grid_for_window<V4Domain>(packets, window, step, phis, hierarchy)
                       : grid_for_window<V6Domain>(packets, window, step, phis, hierarchy));
  }
  return grid;
}

WindowSimilarityResult analyze_window_similarity(std::span<const PacketRecord> packets,
                                                 const WindowSimilarityParams& params) {
  WindowSimilarityResult result;
  result.params = params;
  if (packets.empty()) return result;

  for (const Duration delta : params.deltas) {
    if (delta.ns() <= 0 || delta >= params.baseline_window) {
      throw std::invalid_argument("analyze_window_similarity: bad delta");
    }
  }

  // One disjoint pipeline per tiling (baseline first, then every shrunk
  // variant). Retain the prefix sets only; full HhhSets for thousands of
  // windows would be wasteful.
  std::vector<Duration> windows{params.baseline_window};
  for (const Duration delta : params.deltas) windows.push_back(params.baseline_window - delta);
  std::vector<std::vector<std::vector<PrefixKey>>> sets(windows.size());
  for (std::size_t d = 0; d < windows.size(); ++d) {
    run_model(packets, make_exact_engine(params.hierarchy),
              pipeline::make_disjoint_policy(windows[d]), params.phi,
              [&tiling = sets[d]](const WindowReport& r) { tiling.push_back(r.hhhs.prefixes()); });
  }

  const auto& baseline = sets[0];
  for (std::size_t di = 0; di < params.deltas.size(); ++di) {
    const Duration delta = params.deltas[di];
    const auto& shrunk = sets[di + 1];

    SimilarityPoint point;
    point.delta = delta;
    // Pair the i-th windows of the two tilings while they still overlap.
    // The shrunk tiling drifts by i*delta relative to the baseline, so the
    // comparison degrades with i by construction — this drift, not the
    // trailing-edge trim, is what Fig. 3 measures ("only overlapping
    // windows": (i+1)*delta < W).
    const std::size_t pair_count = std::min(baseline.size(), shrunk.size());
    for (std::size_t i = 0; i < pair_count; ++i) {
      if (static_cast<std::int64_t>(i + 1) * delta.ns() >= params.baseline_window.ns()) break;
      point.jaccard.add(jaccard_sorted(baseline[i].begin(), baseline[i].end(),
                                       shrunk[i].begin(), shrunk[i].end()));
      ++point.pairs;
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace hhh
