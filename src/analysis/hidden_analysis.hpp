/// \file
/// The paper's two measurements.
///
/// 1. Hidden HHHs (Fig. 2). Run the disjoint tiling (window W) and the
///    sliding window (same W, step s = 1 s) over the same trace; collect the
///    distinct HHH prefixes each model ever reports. The *hidden* HHHs are
///    those the sliding model reveals but the disjoint model never reports:
///    hidden = union(sliding) \\ union(disjoint).
///    The headline percentage is |hidden| / |union(sliding) + union(disjoint)|
///    (reported alongside |hidden| / |union(sliding)| as a variant; see
///    DESIGN.md §5).
///
/// 2. Window micro-variation (Fig. 3). Tile the trace with the baseline
///    window W and with windows W - delta for small deltas (10-100 ms), both
///    tilings anchored at t = 0; compare the i-th windows of the two tilings
///    with the Jaccard coefficient while they still overlap
///    ((i+1) * delta < W), and aggregate per-delta into an empirical CDF.
#pragma once

#include <span>
#include <vector>

#include "analysis/cdf.hpp"
#include "core/hhh_types.hpp"
#include "net/hierarchy.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace hhh {

/// Configuration of one hidden-HHH comparison cell.
struct HiddenHhhParams {
  Duration window = Duration::seconds(10);  ///< window W for both models
  Duration step = Duration::seconds(1);     ///< sliding step s
  double phi = 0.05;                        ///< relative HHH threshold
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
};

/// Output of one hidden-HHH comparison cell.
struct HiddenHhhResult {
  HiddenHhhParams params;  ///< the cell's configuration, echoed back

  std::vector<PrefixKey> sliding_prefixes;   ///< distinct, sorted
  std::vector<PrefixKey> disjoint_prefixes;  ///< distinct, sorted
  std::vector<PrefixKey> hidden;             ///< sliding \\ disjoint

  std::size_t union_size = 0;         ///< |sliding ∪ disjoint|
  std::size_t disjoint_windows = 0;   ///< windows tiled
  std::size_t sliding_reports = 0;    ///< sliding positions evaluated

  /// Per-disjoint-window instance counts (the second metric; see below).
  std::size_t windowed_hidden_instances = 0;
  std::size_t windowed_union_instances = 0;

  /// Metric A — trace-wide distinct prefixes: hidden / (all distinct HHHs
  /// either model ever reported).
  double hidden_fraction_of_union() const noexcept {
    return union_size == 0 ? 0.0
                           : static_cast<double>(hidden.size()) /
                                 static_cast<double>(union_size);
  }
  /// Variant of A: hidden / (distinct HHHs the sliding model found).
  double hidden_fraction_of_sliding() const noexcept {
    return sliding_prefixes.empty() ? 0.0
                                    : static_cast<double>(hidden.size()) /
                                          static_cast<double>(sliding_prefixes.size());
  }
  /// Metric B — per-window instances: for every disjoint window i, the
  /// sliding positions ending inside i reveal a set U_i; the window hides
  /// H_i = U_i \ D_i. The fraction is sum|H_i| / sum|U_i ∪ D_i|. A
  /// transient that flickers across many windows counts each time it is
  /// missed, which is how a per-window monitoring system experiences the
  /// loss. Only computed by analyze_hidden_hhh_grid.
  double windowed_hidden_fraction() const noexcept {
    return windowed_union_instances == 0
               ? 0.0
               : static_cast<double>(windowed_hidden_instances) /
                     static_cast<double>(windowed_union_instances);
  }
};

/// Fig. 2 core: one (window, phi) cell over one trace.
HiddenHhhResult analyze_hidden_hhh(std::span<const PacketRecord> packets,
                                   const HiddenHhhParams& params);

/// Fig. 2, whole grid: every (window, phi) cell in one pass per window.
/// One exact sliding summary per window size serves both models (each
/// disjoint window is a sliding position) and all thresholds are
/// extracted together (extract_hhh_multi), which is ~|phis|x cheaper than
/// calling analyze_hidden_hhh per cell.
/// Result indexing: [window_index][phi_index].
std::vector<std::vector<HiddenHhhResult>> analyze_hidden_hhh_grid(
    std::span<const PacketRecord> packets, std::span<const Duration> windows,
    Duration step, std::span<const double> phis, const Hierarchy& hierarchy);

/// Configuration of the window micro-variation (Fig. 3) experiment.
struct WindowSimilarityParams {
  Duration baseline_window = Duration::seconds(10);  ///< window W
  /// Shrink amounts; the paper sweeps 10..100 ms.
  std::vector<Duration> deltas;
  double phi = 0.05;  ///< relative HHH threshold
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
};

/// Per-delta Jaccard distribution of the micro-variation experiment.
struct SimilarityPoint {
  Duration delta;           ///< the shrink amount this point measured
  EmpiricalCdf jaccard;     ///< one sample per compared (overlapping) pair
  std::size_t pairs = 0;    ///< window pairs compared
};

/// Output of the window micro-variation experiment.
struct WindowSimilarityResult {
  WindowSimilarityParams params;        ///< configuration, echoed back
  std::vector<SimilarityPoint> points;  ///< one per delta, in input order
};

/// Fig. 3 core: baseline-vs-shrunk-window Jaccard CDFs over one trace.
WindowSimilarityResult analyze_window_similarity(std::span<const PacketRecord> packets,
                                                 const WindowSimilarityParams& params);

}  // namespace hhh
