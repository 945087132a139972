#include "pipeline/frame_ring.hpp"

#include <stdexcept>
#include <utility>

#include "core/summary.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::pipeline {

FrameRing::FrameRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FrameRing capacity must be positive");
  }
  frames_.reserve(capacity);
}

void FrameRing::push(const WindowReport& report,
                     std::span<const std::uint8_t> frame) {
  if (frames_.size() == capacity_) {
    frames_.erase(frames_.begin());
  }
  frames_.push_back(RetainedFrame{
      .index = report.index,
      .start = report.start,
      .end = report.end,
      .frame = std::vector<std::uint8_t>(frame.begin(), frame.end())});
}

std::vector<const RetainedFrame*> FrameRing::frames_in(TimePoint t1,
                                                       TimePoint t2) const {
  // frames_ is already sorted by end (push order), so a single pass IS
  // the earliest-deadline-first greedy scan.
  std::vector<const RetainedFrame*> out;
  TimePoint cursor = t1;
  for (const RetainedFrame& f : frames_) {
    if (f.start < t1 || f.end > t2) continue;  // not fully inside
    if (f.start < cursor) continue;            // overlaps the last taken frame
    out.push_back(&f);
    cursor = f.end;
  }
  return out;
}

IntervalReport FrameRing::query_interval(TimePoint t1, TimePoint t2,
                                         double phi) const {
  IntervalReport out;
  const std::vector<const RetainedFrame*> selected = frames_in(t1, t2);
  if (selected.empty()) return out;

  std::unique_ptr<HhhSummary> merged;
  for (const RetainedFrame* retained : selected) {
    const wire::FrameView frame = wire::parse_frame(retained->frame);
    wire::check(frame.frame_size == retained->frame.size(),
                wire::WireError::kTrailingBytes,
                "retained bytes continue past their frame");
    std::unique_ptr<HhhSummary> summary = wire::load_engine(frame);
    if (!merged) {
      merged = std::move(summary);
      out.covered_start = retained->start;
    } else {
      if (summary->name() != merged->name()) {
        throw std::invalid_argument(
            "FrameRing::query_interval: mixed frame groups in interval ('" +
            merged->name() + "' vs '" + summary->name() + "')");
      }
      merged->merge_from(*summary);
    }
    ++out.frames_merged;
    out.covered_end = retained->end;
  }

  out.hhhs = merged->report(merged->watermark(), phi);
  out.group = merged->name();
  return out;
}

std::size_t FrameRing::memory_bytes() const noexcept {
  std::size_t total = frames_.capacity() * sizeof(RetainedFrame);
  for (const RetainedFrame& f : frames_) total += f.frame.capacity();
  return total;
}

namespace {

class FrameRingSink final : public ReportSink {
 public:
  explicit FrameRingSink(FrameRing* ring) : ring_(ring) {
    if (ring == nullptr) {
      throw std::invalid_argument("frame-ring sink needs a ring");
    }
  }

  void on_window(const WindowReport& report, SinkContext& ctx) override {
    ring_->push(report, ctx.snapshot());
  }

 private:
  FrameRing* ring_;
};

}  // namespace

std::unique_ptr<ReportSink> make_frame_ring_sink(FrameRing* ring) {
  return std::make_unique<FrameRingSink>(ring);
}

}  // namespace hhh::pipeline
