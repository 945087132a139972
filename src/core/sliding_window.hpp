/// \file
/// Sliding window with step s — the comparison model of Fig. 1b.
///
/// A report is produced every `step` (the paper uses 1 s) covering the
/// trailing `window` (the paper uses the same 5/10/20 s lengths as the
/// disjoint tiling). Exact computation throughout: packets are bucketized
/// per step; a rolling LevelAggregates adds each packet once and subtracts
/// a whole bucket when it leaves the window, so the cost is O(1) per packet
/// plus O(distinct-in-bucket) per slide and one extraction per report —
/// this is what makes exact ground truth over thousands of window
/// positions feasible.
///
/// Requirements: window is an integer multiple of step (checked).
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "core/disjoint_window.hpp"
#include "core/hhh_types.hpp"
#include "core/level_aggregates.hpp"
#include "net/packet.hpp"
#include "util/flat_hash_map.hpp"
#include "util/sim_time.hpp"

namespace hhh {

/// The exact sliding-window HHH detector (paper Fig. 1b model).
class SlidingWindowHhhDetector {
 public:
  /// Construction-time configuration.
  struct Params {
    Duration window = Duration::seconds(10);  ///< trailing window W
    Duration step = Duration::seconds(1);     ///< report cadence s
    double phi = 0.05;                        ///< relative HHH threshold
    Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
    /// When true (default), a report is emitted only once a full window of
    /// history exists (t >= window), matching the paper's methodology.
    bool full_windows_only = true;
  };

  /// Detector over `params`; throws when window % step != 0.
  explicit SlidingWindowHhhDetector(const Params& params);

  /// Feed the next packet; timestamps must be non-decreasing.
  void offer(const PacketRecord& packet);

  /// Feed a timestamp-ordered run of packets. Byte-identical state and
  /// reports to offering each packet in order — one tight loop per batch
  /// (the pipeline sliding-exact stage's ingest path).
  void offer_batch(std::span<const PacketRecord> packets);

  /// Close every step ending at or before `end_of_stream`.
  void finish(TimePoint end_of_stream);

  /// One report per closed step, in order. report.index is the step
  /// ordinal; the report covers (end - window, end].
  const std::vector<WindowReport>& reports() const noexcept { return reports_; }

  /// Drop every retained report (indexes keep counting). Long-running
  /// consumers that take each report as it closes (the pipeline's
  /// sliding-exact stage, set_on_report users) call this so the detector
  /// does not grow one HhhSet per step forever.
  void discard_reports() noexcept { reports_.clear(); }

  /// Optional streaming callback invoked as each step closes.
  void set_on_report(std::function<void(const WindowReport&)> cb) { on_report_ = std::move(cb); }

  /// Footprint of the rolling counters and live buckets.
  std::size_t memory_bytes() const noexcept;

 private:
  void close_steps_before(TimePoint t);

  using Bucket = std::vector<std::pair<std::uint32_t, std::uint64_t>>;  // (src, bytes)

  Params params_;
  std::size_t steps_per_window_;
  LevelAggregates rolling_;
  FlatHashMap<std::uint32_t, std::uint64_t> current_bucket_;
  std::deque<Bucket> live_buckets_;  // buckets currently inside `rolling_`
  std::size_t current_step_ = 0;
  std::vector<WindowReport> reports_;
  std::function<void(const WindowReport&)> on_report_;
};

}  // namespace hhh
