/// \file
/// One pass of a workload: an in-process CollectorService on a fresh Unix
/// socket, and V vantage pipelines — each the Pipeline + make_engine_stage
/// + make_disjoint_policy + VantageClient composition `hhh-live --connect`
/// builds — replaying the workload's traffic into it on their own
/// threads. Every revealed epoch is checked against the oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/collectord.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace hhh::e2e {

/// How to run one pass.
struct PassOptions {
  std::string dir;            ///< fresh per pass: socket and checkpoint
  std::size_t loops = 1;      ///< trace replays; 0 = set-up and shutdown only
  std::size_t warmup = 10;    ///< leading epochs left out of latency samples
  bool traced = false;        ///< decorate the layers and replay the collector
  bool keep_spans = false;    ///< keep the span logs (Chrome trace output)
};

/// One epoch's answer, kept until it is scored against the oracle.
struct EpochAnswer {
  bool revealed = false;
  std::vector<PrefixKey> merged;  ///< every merge group's HHH prefixes
  std::vector<PrefixKey> hidden;  ///< the collector's hidden set
  std::vector<PrefixKey> own;     ///< a lone vantage's own window report
};

/// What one pass measured.
struct PassResult {
  std::string error;  ///< why the pass could not run to the end ("" = it did)

  double setup_s = 0.0;       ///< collector + vantages built, to the last first next_batch
  double wall_s = 0.0;        ///< first packet to the last epoch's reveal
  std::uint64_t packets = 0;  ///< ingested by all vantages
  double peak_rss_kb = 0.0;   ///< VmHWM over the pass (absolute)

  std::size_t epochs = 0;            ///< epochs attempted
  std::vector<EpochAnswer> answers;  ///< by epoch, until score_pass
  std::size_t failed = 0;  ///< (score_pass) never revealed, wrong, or collector errors
  std::vector<double> reveal_ms;             ///< reveal - due, after warm-up
  std::vector<double> close_to_arrival_ms;   ///< first window close -> first frame arrival
  std::vector<double> arrival_to_reveal_ms;  ///< first frame arrival -> reveal
  /// Paced workloads: each vantage's window close minus its schedule —
  /// how late the open loop ran.
  std::vector<double> pace_lag_ms;
  /// (score_pass) Answer overlap with the oracle: the hidden set on
  /// fleets, the merged set on a single vantage (nothing can be hidden).
  std::uint64_t answer_hits = 0;
  std::uint64_t answer_expected = 0;
  std::uint64_t answer_revealed = 0;

  service::CollectorStats stats;
  double collector_cpu_s = 0.0;
  double vantage_cpu_s = 0.0;   ///< summed over vantage threads
  double vantage_wall_s = 0.0;  ///< summed over vantage threads
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t journal_bytes = 0;  ///< what every VantageClient journal retains

  // Traced passes only.
  LayerTimes vantage_layers;  ///< summed over vantages
  LayerTimes replay_layers;   ///< the collector replay
  std::vector<SpanLog> logs;  ///< vantage logs then the replay log (keep_spans)
  std::vector<CollectorEpochSpan> collector_epochs;  ///< (keep_spans)
};

/// VmRSS in kB after returning freed heap to the kernel: the baseline a
/// run's pass peaks are measured from, taken once before its first pass.
/// (Measuring from each pass's own start would credit the heap the
/// allocator kept from earlier passes to the pass, unevenly.)
double resident_kb();

/// Run one pass of `w` over `traffic`. The answers are scored later, by
/// score_pass: the oracle is computed after the passes, so its heap does
/// not sit under their RSS measurements.
PassResult run_pass(const Workload& w, const Traffic& traffic, const PassOptions& options);

/// Count the pass's failed epochs and its answer overlap against the
/// oracle (indexed by epoch within one loop), then drop the answers. An
/// epoch fails when it was never revealed, when the pass hit an error or
/// collector counted one, or — on exact engines — when its merged or
/// hidden set differs from the oracle or a lone vantage's merged set from
/// its own window report.
void score_pass(const Workload& w, std::span<const OracleEpoch> oracle, PassResult& r);

}  // namespace hhh::e2e
