#include "core/sliding_window.hpp"

#include <stdexcept>

#include "core/exact_hhh.hpp"

namespace hhh {

template <typename D>
BasicExactSlidingSummary<D>::BasicExactSlidingSummary(const Params& params)
    : params_(params),
      steps_per_window_(0),
      open_(params.hierarchy),
      window_(params.hierarchy),
      partial_(params.hierarchy) {
  if (params_.step.ns() <= 0 || params_.window.ns() <= 0) {
    throw std::invalid_argument("ExactSlidingSummary: window/step must be positive");
  }
  if (params_.window.ns() % params_.step.ns() != 0) {
    throw std::invalid_argument("ExactSlidingSummary: window must be a multiple of step");
  }
  steps_per_window_ = static_cast<std::size_t>(params_.window / params_.step);
}

template <typename D>
void BasicExactSlidingSummary<D>::close_steps_before(TimePoint t) {
  while (watermark() + params_.step <= t) {
    if (closed_.size() == steps_per_window_) {
      window_.subtract_run(closed_.front());
      closed_.pop_front();
    }
    if (open_.leaves() == 0) {
      closed_.emplace_back();  // a silent step: no map walk
    } else {
      open_.freeze();
      window_.merge(open_);
      closed_.push_back(open_.release_run());
    }
    ++open_step_;
  }
}

template <typename D>
void BasicExactSlidingSummary<D>::add_batch(std::span<const PacketRecord> run) {
  while (!run.empty()) {
    close_steps_before(run.front().ts);
    const TimePoint end = watermark() + params_.step;
    std::size_t n = 1;
    while (n < run.size() && run[n].ts < end) ++n;
    open_.add_batch(run.first(n));
    run = run.subspan(n);
  }
}

template <typename D>
const BasicLevelAggregates<D>& BasicExactSlidingSummary<D>::counters(TimePoint now) {
  close_steps_before(now);
  if (now <= watermark()) return window_;
  // Inside the open step: the oldest closed step has left the window and
  // the open step's partial counts have joined it.
  partial_ = window_;
  if (closed_.size() == steps_per_window_) partial_.subtract_run(closed_.front());
  partial_.merge(open_);
  return partial_;
}

template <typename D>
HhhSet BasicExactSlidingSummary<D>::report(TimePoint now, double phi) {
  return extract_hhh_relative(counters(now), phi);
}

template <typename D>
std::size_t BasicExactSlidingSummary<D>::memory_bytes() const {
  std::size_t sum = open_.memory_bytes() + window_.memory_bytes() + partial_.memory_bytes();
  for (const Run& run : closed_) sum += run.capacity() * sizeof(typename Run::value_type);
  return sum;
}

template class BasicExactSlidingSummary<V4Domain>;
template class BasicExactSlidingSummary<V6Domain>;

std::unique_ptr<HhhSummary> make_exact_sliding_summary(const ExactSlidingParams& params) {
  if (params.hierarchy.family() == AddressFamily::kIpv4) {
    return std::make_unique<ExactSlidingSummary>(params);
  }
  return std::make_unique<ExactSlidingSummaryV6>(params);
}

}  // namespace hhh
