/// \file
/// WindowPolicy — the time-driven reporting schedule of a pipeline.
///
/// The paper contrasts three reporting models: disjoint fixed windows
/// (Fig. 1a, extract + reset at every boundary), sliding windows (Fig. 1b,
/// a report every step covering the trailing W) and windowless
/// continuous-time queries (§3, a query cadence over decaying state).
/// A WindowPolicy owns the report schedule — *when* a report is due,
/// *what* interval it covers, and *whether* closing it resets the
/// measurement state — while the MeasurementStage owns how the report is
/// computed. It is the one place the disjoint-window schedule lives: every
/// Fig. 1a run (tools, vantages, the offline figure analyses) is a
/// Pipeline over make_disjoint_policy.
///
/// Policies are clock-agnostic: the pipeline advances them with packet
/// timestamps (deterministic replay) or with a wall-clock-derived stream
/// time (live/paced operation); the policy only sees TimePoints.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "util/sim_time.hpp"

/// \namespace hhh::pipeline
/// \brief The streaming pipeline runtime: packet sources, measurement
/// stages, window policies and report sinks composed into one dataflow
/// (pipeline/pipeline.hpp).
namespace hhh::pipeline {

/// One due report boundary: the interval a report must cover.
struct WindowEvent {
  std::size_t index = 0;  ///< report ordinal within the policy's schedule
  TimePoint start;        ///< interval start (inclusive)
  TimePoint end;          ///< interval end (exclusive; the boundary itself)
};

/// The reporting schedule of one pipeline: an ordered stream of report
/// boundaries plus the reset semantics of the window model.
class WindowPolicy {
 public:
  /// Policies are owned polymorphically by pipelines.
  virtual ~WindowPolicy() = default;

  /// The earliest pending report boundary. The pipeline closes the event
  /// once the stream clock reaches or passes this instant.
  virtual TimePoint next_boundary() const noexcept = 0;

  /// The event closing at next_boundary().
  virtual WindowEvent next_event() const = 0;

  /// Advance past next_boundary() (the pipeline has reported the event).
  virtual void advance() = 0;

  /// True when the measurement state is forgotten after every closed
  /// window (the disjoint model's reset-at-boundary practice); false for
  /// sliding/decaying models whose state expires by time instead.
  virtual bool resets_state() const noexcept = 0;

  /// Stable policy identifier ("disjoint", "sliding", "query_cadence").
  virtual std::string name() const = 0;
};

/// Disjoint fixed windows of length `window` tiling the stream from t=0:
/// event k covers [k*W, (k+1)*W) and closing it resets the stage (the
/// Fig. 1a model). Throws std::invalid_argument on a non-positive window.
std::unique_ptr<WindowPolicy> make_disjoint_policy(Duration window);

/// Sliding window of length `window` reported every `step` (the Fig. 1b
/// model): event k covers ((k+1)*s - W, (k+1)*s]. With `full_windows_only`
/// (the paper's methodology) the schedule starts at the first step with a
/// full window of history, i.e. index W/s - 1. Closing never resets — the
/// stage's state must expire by time (Memento frames, the exact sliding
/// summary's steps). Requires window % step == 0.
std::unique_ptr<WindowPolicy> make_sliding_policy(Duration window, Duration step,
                                                  bool full_windows_only = true);

/// Windowless continuous-time queries every `cadence`: event k covers
/// [0, (k+1)*cadence) — the whole decayed history as of the query instant.
/// For TDBF-style stages whose state decays continuously.
std::unique_ptr<WindowPolicy> make_query_cadence_policy(Duration cadence);

}  // namespace hhh::pipeline
