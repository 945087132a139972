#include "pipeline/window_policy.hpp"

#include <stdexcept>

namespace hhh::pipeline {

namespace {

/// Shared arithmetic for evenly spaced boundaries at multiples of `period`
/// from t=0: boundary k is at (k+1)*period — the same step arithmetic
/// the exact sliding summary uses, so its step ends and the sliding
/// policy's events land on identical instants.
class PeriodicPolicy : public WindowPolicy {
 public:
  PeriodicPolicy(Duration period, std::size_t first_index)
      : period_(period), index_(first_index) {
    if (period_.ns() <= 0) {
      throw std::invalid_argument("WindowPolicy: period must be positive");
    }
  }

  TimePoint next_boundary() const noexcept override {
    return TimePoint() + period_ * static_cast<std::int64_t>(index_ + 1);
  }

  void advance() override { ++index_; }

 protected:
  Duration period_;
  std::size_t index_;
};

class DisjointPolicy final : public PeriodicPolicy {
 public:
  explicit DisjointPolicy(Duration window) : PeriodicPolicy(window, 0) {}

  WindowEvent next_event() const override {
    const TimePoint end = next_boundary();
    return WindowEvent{index_, end - period_, end};
  }

  bool resets_state() const noexcept override { return true; }
  std::string name() const override { return "disjoint"; }
};

class SlidingPolicy final : public PeriodicPolicy {
 public:
  SlidingPolicy(Duration window, Duration step, bool full_windows_only)
      : PeriodicPolicy(step, 0), window_(window) {
    if (window.ns() <= 0) {
      throw std::invalid_argument("WindowPolicy: window must be positive");
    }
    if (window.ns() % step.ns() != 0) {
      throw std::invalid_argument("WindowPolicy: window must be a multiple of step");
    }
    if (full_windows_only) {
      // The first step with a full trailing window of history: step k ends
      // at (k+1)*s; a full window exists once (k+1)*s >= W.
      index_ = static_cast<std::size_t>(window / step) - 1;
    }
  }

  WindowEvent next_event() const override {
    const TimePoint end = next_boundary();
    return WindowEvent{index_, end - window_, end};
  }

  bool resets_state() const noexcept override { return false; }
  std::string name() const override { return "sliding"; }

 private:
  Duration window_;
};

class QueryCadencePolicy final : public PeriodicPolicy {
 public:
  explicit QueryCadencePolicy(Duration cadence) : PeriodicPolicy(cadence, 0) {}

  WindowEvent next_event() const override {
    return WindowEvent{index_, TimePoint(), next_boundary()};
  }

  bool resets_state() const noexcept override { return false; }
  std::string name() const override { return "query_cadence"; }
};

}  // namespace

std::unique_ptr<WindowPolicy> make_disjoint_policy(Duration window) {
  return std::make_unique<DisjointPolicy>(window);
}

std::unique_ptr<WindowPolicy> make_sliding_policy(Duration window, Duration step,
                                                  bool full_windows_only) {
  return std::make_unique<SlidingPolicy>(window, step, full_windows_only);
}

std::unique_ptr<WindowPolicy> make_query_cadence_policy(Duration cadence) {
  return std::make_unique<QueryCadencePolicy>(cadence);
}

}  // namespace hhh::pipeline
