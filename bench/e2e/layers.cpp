#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <type_traits>
#include <utility>

namespace hhh::e2e {

static_assert(std::is_trivially_copyable_v<PacketRecord>);

LoopSource::LoopSource(std::span<const PacketRecord> trace, Duration loop_span,
                       std::size_t loops)
    : trace_(trace), loop_span_(loop_span), loops_(loops) {}

bool LoopSource::ready() {
  if (first_pull_ns_ == 0) first_pull_ns_ = now_ns();
  if (pos_ == trace_.size() && loop_ < loops_) {
    ++loop_;
    pos_ = 0;
    shift_ += loop_span_;
  }
  return loop_ < loops_ && pos_ < trace_.size();
}

std::optional<PacketRecord> LoopSource::next() {
  if (!ready()) return std::nullopt;
  PacketRecord p = trace_[pos_++];
  p.ts += shift_;
  return p;
}

std::size_t LoopSource::next_batch(std::span<PacketRecord> out) {
  if (!ready()) return 0;
  const std::size_t n = std::min(out.size(), trace_.size() - pos_);
  std::memcpy(out.data(), trace_.data() + pos_, n * sizeof(PacketRecord));
  if (shift_.ns() != 0) {
    for (std::size_t i = 0; i < n; ++i) out[i].ts += shift_;
  }
  pos_ += n;
  return n;
}

void EpochSink::on_window(const WindowReport& report, pipeline::SinkContext& ctx) {
  log_.close_ns.push_back(now_ns());
  ScopedSpan sink(spans_, Layer::kSink);
  log_.reports.push_back(report.hhhs.prefixes());
  const std::vector<std::uint8_t>& frame = ctx.snapshot();
  ++log_.frames;
  log_.frame_bytes += frame.size();
  ScopedSpan send(spans_, Layer::kSend);
  client_.send_epoch(report.start.ns(), report.end.ns(), frame);
}

std::optional<PacketRecord> TimedSource::next() {
  ScopedSpan span(&spans_, Layer::kSource);
  return inner_->next();
}

std::size_t TimedSource::next_batch(std::span<PacketRecord> out) {
  ScopedSpan span(&spans_, Layer::kSource);
  return inner_->next_batch(out);
}

void TimedStage::ingest(std::span<const PacketRecord> run) {
  ScopedSpan span(&spans_, Layer::kIngest);
  inner_->ingest(run);
}

HhhSet TimedStage::report(const pipeline::WindowEvent& event, double phi) {
  epoch_ = static_cast<std::int64_t>(event.index);
  spans_.set_epoch(epoch_);
  ScopedSpan span(&spans_, Layer::kExtract);
  return inner_->report(event, phi);
}

void TimedStage::reset_state() {
  {
    ScopedSpan span(&spans_, Layer::kReset);
    inner_->reset_state();
  }
  // Everything after the reset serves the next window.
  spans_.set_epoch(epoch_ + 1);
}

std::vector<std::uint8_t> TimedStage::snapshot() const {
  ScopedSpan span(&spans_, Layer::kEncode);
  return inner_->snapshot();
}

void TimedPaceClock::sleep_until_ns(std::int64_t deadline_ns) {
  // The production clock's sleep, with the span only around real waits so
  // the per-packet "already due" calls cost one clock read, as before.
  const std::int64_t now = now_ns();
  if (deadline_ns <= now) return;
  ScopedSpan span(&spans_, Layer::kPaceWait);
  std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
}

}  // namespace hhh::e2e
