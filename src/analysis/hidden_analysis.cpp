#include "analysis/hidden_analysis.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>

#include "analysis/jaccard.hpp"
#include "core/engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "core/sliding_window.hpp"
#include "pipeline/pipeline.hpp"
#include "util/flat_hash_map.hpp"

namespace hhh {

namespace {

/// The Fig. 1a model over a non-empty in-memory trace, run the way every
/// vantage runs it: an exact engine behind the pipeline's disjoint policy,
/// closing every window that ends by the last packet. Returns the number
/// of windows closed.
std::size_t run_disjoint(std::span<const PacketRecord> packets, Duration window, double phi,
                         const Hierarchy& hierarchy,
                         std::function<void(const WindowReport&)> on_report) {
  pipeline::PipelineConfig config;
  config.phi = phi;
  config.finish_at = packets.back().ts;
  config.metrics = false;
  pipeline::Pipeline pipe(pipeline::make_span_source(packets),
                          pipeline::make_engine_stage(make_exact_engine(hierarchy)),
                          pipeline::make_disjoint_policy(window), config);
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
  result.disjoint_windows =
      run_disjoint(packets, params.window, params.phi, params.hierarchy,
                   [&](const WindowReport& r) { disjoint_union.add(r.hhhs.prefixes()); });

  SlidingWindowHhhDetector sliding({.window = params.window,
                                    .step = params.step,
                                    .phi = params.phi,
                                    .hierarchy = params.hierarchy});
  sliding.set_on_report([&](const WindowReport& r) { sliding_union.add(r.hhhs.prefixes()); });
  sliding.offer_batch(packets);
  sliding.finish(packets.back().ts);

  result.sliding_reports = sliding.reports().size();
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

/// One window-size slice of the grid: feeds both models once, extracts all
/// thresholds together at every boundary.
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
  const std::size_t steps_per_window = static_cast<std::size_t>(window / step);

  LevelAggregates rolling(hierarchy);
  LevelAggregates disjoint(hierarchy);
  FlatHashMap<std::uint32_t, std::uint64_t> bucket(4096);
  std::deque<std::vector<std::pair<std::uint32_t, std::uint64_t>>> live_buckets;
  std::vector<PrefixUnion> sliding_union(k);
  std::vector<PrefixUnion> disjoint_union(k);
  // Metric B state: sliding-revealed prefixes within the current disjoint
  // window, plus the instance accumulators.
  std::vector<PrefixUnion> window_sliding(k);
  std::vector<std::size_t> windowed_hidden(k, 0);
  std::vector<std::size_t> windowed_union(k, 0);
  std::size_t disjoint_windows = 0;
  std::size_t sliding_reports = 0;
  std::int64_t current_step = 0;

  const auto close_steps_before = [&](TimePoint t) {
    while (TimePoint() + step * (current_step + 1) <= t) {
      std::vector<std::pair<std::uint32_t, std::uint64_t>> frozen;
      frozen.reserve(bucket.size());
      bucket.for_each([&](std::uint32_t src, std::uint64_t& bytes) {
        frozen.emplace_back(src, bytes);
      });
      bucket.clear();
      live_buckets.push_back(std::move(frozen));
      if (live_buckets.size() > steps_per_window) {
        for (const auto& [src, bytes] : live_buckets.front()) {
          rolling.remove(Ipv4Address(src), bytes);
        }
        live_buckets.pop_front();
      }
      if (live_buckets.size() == steps_per_window) {
        const auto sets = extract_hhh_multi_relative(rolling, phis);
        for (std::size_t i = 0; i < k; ++i) {
          const auto prefixes = sets[i].prefixes();
          sliding_union[i].add(prefixes);
          window_sliding[i].add(prefixes);
        }
        ++sliding_reports;
      }
      // Disjoint boundary coincides with every (window/step)-th step edge.
      const std::int64_t step_end_ns = step.ns() * (current_step + 1);
      if (step_end_ns % window.ns() == 0) {
        const auto sets = extract_hhh_multi_relative(disjoint, phis);
        for (std::size_t i = 0; i < k; ++i) {
          const auto d = sets[i].prefixes();
          disjoint_union[i].add(d);
          // Metric B bookkeeping for this window.
          const auto& u = window_sliding[i].values();
          windowed_hidden[i] += prefix_difference(u, d).size();
          PrefixUnion all;
          all.add(u);
          all.add(d);
          windowed_union[i] += all.size();
          window_sliding[i] = PrefixUnion();
        }
        disjoint.clear();
        ++disjoint_windows;
      }
      ++current_step;
    }
  };

  for (const auto& p : packets) {
    if (p.family() != AddressFamily::kIpv4) continue;  // v4 analysis
    close_steps_before(p.ts);
    rolling.add(p.src(), p.ip_len);
    disjoint.add(p.src(), p.ip_len);
    bucket[p.src().v4().bits()] += p.ip_len;
  }
  close_steps_before(packets.back().ts);

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
    grid.push_back(grid_for_window(packets, window, step, phis, hierarchy));
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
    run_disjoint(packets, windows[d], params.phi, params.hierarchy,
                 [&tiling = sets[d]](const WindowReport& r) {
                   tiling.push_back(r.hhhs.prefixes());
                 });
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
