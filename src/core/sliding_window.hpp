/// \file
/// Exact sliding window with step s — the comparison model of Fig. 1b and
/// the ground truth of every sliding answer in the repo (the hidden-HHH
/// analyses, Memento's accuracy checks).
///
/// A report every `step` (the paper uses 1 s) covers the trailing
/// `window` (the same 5/10/20 s lengths as the disjoint tiling). Packets
/// are counted per step at the leaf level. A closed step is frozen into
/// an ascending run of leaves and merged into the window's counters; when
/// it leaves the window the run is subtracted again. Both are linear
/// passes over sorted runs, so the cost is one counter per packet plus
/// O(distinct leaves in the window) per step, and a report extracts from
/// counters that are already sorted — what makes exact ground truth over
/// thousands of window positions feasible. report() takes phi per call,
/// so one instance serves a pipeline stage (make_engine_stage +
/// make_sliding_policy) and the multi-threshold Fig. 2 grid alike.
/// Exact sliding state is neither merged nor shipped: merge_from and
/// save/load_state keep the HhhSummary defaults.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>

#include "core/hhh_types.hpp"
#include "core/level_aggregates.hpp"
#include "core/summary.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace hhh {

/// Construction-time configuration shared by both family instantiations.
struct ExactSlidingParams {
  Duration window = Duration::seconds(10);  ///< trailing window W
  Duration step = Duration::seconds(1);     ///< step s; W must be a multiple of s
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
};

/// The exact sliding-window summary (see file header). Step k covers
/// [k*s, (k+1)*s); it closes once a packet or a query reaches its end.
template <typename D>
class BasicExactSlidingSummary final : public HhhSummary {
 public:
  /// Construction-time configuration (shared across families).
  using Params = ExactSlidingParams;

  /// Throws std::invalid_argument when window or step is not positive,
  /// when window % step != 0, or when the hierarchy's family is not the
  /// domain's.
  explicit BasicExactSlidingSummary(const Params& params);

  /// Count a timestamp-ordered run of packets. A packet at or past the
  /// open step's end closes that step (and any empty steps after it)
  /// first. A straggler, whose timestamp lies in an older step, is
  /// counted with the step that is open when it arrives, and expires
  /// with that step.
  void add_batch(std::span<const PacketRecord> run) override;

  /// Exact HHHs of counters(now) at relative threshold `phi`.
  HhhSet report(TimePoint now, double phi) override;
  /// Exact byte total of counters(now).
  double total(TimePoint now) override {
    return static_cast<double>(counters(now).total_bytes());
  }

  /// The end of the last closed step: report(watermark(), phi) answers
  /// for the newest complete window.
  TimePoint watermark() const noexcept override {
    return TimePoint() + params_.step * open_step_;
  }

  /// The leaf counters of the W/s steps that end at the first step
  /// boundary at or after `now`: first every step ending at or before
  /// `now` closes. On a step boundary these are the W/s closed steps
  /// ending there; inside a step, the last W/s - 1 closed steps plus
  /// what the open step has counted so far. An instant before
  /// watermark() reads the window ending at watermark(). The reference
  /// is valid until the next call on this summary.
  const BasicLevelAggregates<D>& counters(TimePoint now);

  /// Footprint of the counters and the kept step runs.
  std::size_t memory_bytes() const override;
  /// "exact_sliding" (IPv4) / "exact_sliding_v6" (IPv6).
  std::string name() const override {
    return D::kFamily == AddressFamily::kIpv4 ? "exact_sliding" : "exact_sliding_v6";
  }

 private:
  using Run = typename BasicLevelAggregates<D>::Run;

  void close_steps_before(TimePoint t);

  Params params_;
  std::size_t steps_per_window_;
  std::int64_t open_step_ = 0;       // index of the step being counted
  BasicLevelAggregates<D> open_;     // the open step's leaves
  BasicLevelAggregates<D> window_;   // the closed steps in closed_, summed
  std::deque<Run> closed_;           // the last W/s closed steps, oldest first
  BasicLevelAggregates<D> partial_;  // counters(now) inside a step
};

/// The IPv4 summary (name "exact_sliding").
using ExactSlidingSummary = BasicExactSlidingSummary<V4Domain>;
/// The IPv6 summary (name "exact_sliding_v6").
using ExactSlidingSummaryV6 = BasicExactSlidingSummary<V6Domain>;

extern template class BasicExactSlidingSummary<V4Domain>;
extern template class BasicExactSlidingSummary<V6Domain>;

/// The summary instantiation matching `params.hierarchy`'s family.
std::unique_ptr<HhhSummary> make_exact_sliding_summary(const ExactSlidingParams& params);

}  // namespace hhh
