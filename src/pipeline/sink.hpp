/// \file
/// ReportSink — the delivery end of the pipeline runtime.
///
/// Every closed window flows to each attached sink as a WindowReport plus
/// a SinkContext the sink can pull extras from (today: the stage's framed
/// snapshot, built lazily once per window no matter how many sinks want
/// it). Sinks cover the three consumers the repo previously hand-rolled:
/// human-readable analysis tables, snapshot frame streams for
/// hhh-collector, and in-memory report vectors for tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"

namespace hhh::pipeline {

class MeasurementStage;

/// Per-window extras a sink can pull beyond the report itself. The framed
/// snapshot is built on first request and cached for the remaining sinks
/// of the same window.
class SinkContext {
 public:
  /// Context for one window close over `stage`.
  explicit SinkContext(const MeasurementStage& stage) : stage_(stage) {}

  /// The stage's state as one snapshot frame, taken at this window close
  /// (before any policy reset). Throws std::logic_error for
  /// non-serializable stages.
  const std::vector<std::uint8_t>& snapshot();

  /// The stage that produced this window.
  const MeasurementStage& stage() const noexcept { return stage_; }

 private:
  const MeasurementStage& stage_;
  std::optional<std::vector<std::uint8_t>> snapshot_;
};

/// A consumer of closed-window reports.
class ReportSink {
 public:
  /// Sinks are owned polymorphically by the pipeline.
  virtual ~ReportSink() = default;

  /// One closed window. `report` is shared across sinks — copy what you
  /// keep.
  virtual void on_window(const WindowReport& report, SinkContext& ctx) = 0;

  /// End of stream (after the last window the run closes).
  virtual void on_finish() {}
};

/// Collect reports into an in-memory vector (the test sink). The caller
/// keeps a raw pointer before moving the sink into the pipeline; the
/// vector outlives the run inside the sink.
class CollectSink final : public ReportSink {
 public:
  void on_window(const WindowReport& report, SinkContext&) override {
    reports_.push_back(report);
  }

  /// Reports of all closed windows, in order.
  const std::vector<WindowReport>& reports() const noexcept { return reports_; }

 private:
  std::vector<WindowReport> reports_;
};

/// Invoke a callback per window — the porting shim for
/// set_on_report()-style consumers.
std::unique_ptr<ReportSink> make_callback_sink(
    std::function<void(const WindowReport&)> callback);

/// Render one aligned analysis-table line per window (index, span, total,
/// HHH count) plus the per-item rows at `max_items` > 0, to `out`
/// (borrowed; typically stdout/stderr).
std::unique_ptr<ReportSink> make_table_sink(std::FILE* out, std::size_t max_items = 0);

/// Stream one snapshot frame per closed window — the self-delimiting
/// concatenated-frame format hhh-collector consumes (files or --stdin).
/// The frame is taken before any policy reset, so a disjoint engine
/// pipeline emits exactly the window's traffic per frame. `out` is
/// borrowed and flushed per frame (a live consumer at the end of a pipe
/// sees windows as they close). Requires a serializable stage.
std::unique_ptr<ReportSink> make_snapshot_stream_sink(std::FILE* out);

/// Same, writing to a file created/truncated at construction. Throws
/// std::runtime_error on open failure.
std::unique_ptr<ReportSink> make_snapshot_stream_sink(const std::string& path);

}  // namespace hhh::pipeline
