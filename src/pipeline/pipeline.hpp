/// \file
/// Pipeline — the streaming runtime composing
/// PacketSource -> ShardRouter -> MeasurementStage -> WindowPolicy ->
/// ReportSink.
///
/// Before this runtime every tool and example hand-rolled the same loop:
/// read packets, track window boundaries, extract, write results. The
/// pipeline owns that loop once, with the paper's continuous-measurement
/// shape: a vantage observes traffic (source), measures it (stage, maybe
/// sharded), and ships a report per epoch (policy + sinks) — the exact
/// operational model the multi-vantage collector aggregates.
///
/// Clocks. The run is packet-clock by default: windows close when packet
/// timestamps cross boundaries, so offline replays are deterministic and
/// byte-identical to a hand-written extract-and-reset loop over the same
/// engine (the conformance harness's pipeline axis pins this against an
/// oracle that does not use WindowPolicy). With `wall_clock` the stream
/// time reported by the source (e.g. a paced replay's wall-derived
/// position) also advances the policy, so windows keep closing through
/// quiet stretches — the live-operation mode hhh-live uses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/sink.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/window_policy.hpp"

namespace hhh::pipeline {

/// Run-wide configuration.
struct PipelineConfig {
  /// Relative HHH threshold per report.
  double phi = 0.05;
  /// Absolute threshold mode when > 0: each report uses
  /// phi = min(1, threshold_bytes / scope_total) — the collector's
  /// distributed-hidden-HHH convention.
  double threshold_bytes = 0.0;
  /// Packets pulled from the source per read (and the granularity of
  /// stage add_batch fast paths).
  std::size_t batch_size = 4096;
  /// Drive the policy with source stream time as well as packet
  /// timestamps (live/paced operation).
  bool wall_clock = false;
  /// Close every window with a boundary at or before this instant once
  /// the source is exhausted (offline analyses pass the last packet's
  /// timestamp); unset leaves the open window unreported.
  std::optional<TimePoint> finish_at;
  /// At end of stream, also close the final partial window if any packets
  /// landed in it (a live vantage ships its last epoch too). Applied
  /// after finish_at.
  bool flush_open_window = false;
  /// Stop the run after this many closed windows (live demos, bounded
  /// smoke tests).
  std::optional<std::size_t> max_windows;
  /// Register per-stage counters/histograms in the process-wide
  /// MetricsRegistry (chunk-granular increments; see bench/throughput's
  /// instrumentation_overhead A/B row, gated <2%). Off for harnesses that
  /// must not touch global state.
  bool metrics = true;
};

/// What a finished run did.
struct RunStats {
  std::uint64_t packets = 0;        ///< packets ingested
  std::uint64_t bytes = 0;          ///< IP bytes ingested
  std::size_t windows_closed = 0;   ///< reports delivered to sinks
};

/// One composed dataflow; single-threaded driver (parallelism lives in
/// the shard router's worker threads).
class Pipeline {
 public:
  /// Compose a pipeline; all parts are required except sinks.
  Pipeline(std::unique_ptr<PacketSource> source, std::unique_ptr<MeasurementStage> stage,
           std::unique_ptr<WindowPolicy> policy, PipelineConfig config = {});

  /// Attach a sink; returns it for callers that keep a handle (e.g.
  /// CollectSink). Sinks fire in attachment order.
  template <typename S>
  S& add_sink(std::unique_ptr<S> sink) {
    S& ref = *sink;
    sinks_.push_back(std::move(sink));
    return ref;
  }

  /// Pull the source dry (or until max_windows), closing windows and
  /// delivering reports along the way.
  RunStats run();

  /// The measurement stage (read-only).
  const MeasurementStage& stage() const noexcept { return *stage_; }
  /// The window policy (read-only).
  const WindowPolicy& policy() const noexcept { return *policy_; }

 private:
  /// Resolved hot-path metric handles (per stage name, registered once at
  /// construction; all null when config.metrics is off).
  struct Metrics {
    obs::Counter* packets = nullptr;       ///< hhh_pipeline_packets_total
    obs::Counter* bytes = nullptr;         ///< hhh_pipeline_bytes_total
    obs::Counter* batches = nullptr;       ///< hhh_pipeline_batches_total
    obs::Counter* windows = nullptr;       ///< hhh_pipeline_windows_total
    obs::Histogram* batch_packets = nullptr;    ///< hhh_pipeline_batch_packets
    obs::Histogram* window_close_ns = nullptr;  ///< hhh_pipeline_window_close_ns
  };

  /// Close every window with boundary <= t; returns false when
  /// max_windows stops the run.
  bool close_windows_before(TimePoint t);
  double scope_phi() const;

  std::unique_ptr<PacketSource> source_;
  std::unique_ptr<MeasurementStage> stage_;
  std::unique_ptr<WindowPolicy> policy_;
  PipelineConfig config_;
  std::vector<std::unique_ptr<ReportSink>> sinks_;
  RunStats stats_;
  Metrics metrics_;
  bool open_window_dirty_ = false;  ///< packets ingested since last close
};

}  // namespace hhh::pipeline
