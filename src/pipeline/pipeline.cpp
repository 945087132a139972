#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace hhh::pipeline {

namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Pipeline::Pipeline(std::unique_ptr<PacketSource> source,
                   std::unique_ptr<MeasurementStage> stage,
                   std::unique_ptr<WindowPolicy> policy, PipelineConfig config)
    : source_(std::move(source)),
      stage_(std::move(stage)),
      policy_(std::move(policy)),
      config_(config) {
  if (!source_ || !stage_ || !policy_) {
    throw std::invalid_argument("Pipeline: source, stage and policy are required");
  }
  if (config_.batch_size == 0) {
    throw std::invalid_argument("Pipeline: batch_size must be positive");
  }
  if (config_.threshold_bytes <= 0.0 && (config_.phi <= 0.0 || config_.phi > 1.0)) {
    throw std::invalid_argument("Pipeline: phi outside (0,1]");
  }
  if (config_.metrics) {
    auto& reg = obs::MetricsRegistry::process();
    const obs::Labels labels{{"stage", stage_->name()}};
    metrics_.packets = &reg.counter("hhh_pipeline_packets_total", labels,
                                    "Packets ingested by the pipeline stage");
    metrics_.bytes = &reg.counter("hhh_pipeline_bytes_total", labels,
                                  "IP bytes ingested by the pipeline stage");
    metrics_.batches = &reg.counter("hhh_pipeline_batches_total", labels,
                                    "Intra-window chunks handed to the stage");
    metrics_.windows = &reg.counter("hhh_pipeline_windows_total", labels,
                                    "Windows closed and reported to sinks");
    metrics_.batch_packets = &reg.histogram("hhh_pipeline_batch_packets", labels,
                                            "Packets per stage ingest chunk");
    metrics_.window_close_ns =
        &reg.histogram("hhh_pipeline_window_close_ns", labels,
                       "Wall time of one window close (report + sinks)");
  }
}

double Pipeline::scope_phi() const {
  if (config_.threshold_bytes <= 0.0) return config_.phi;
  const double total = static_cast<double>(stage_->total_bytes());
  if (total <= 0.0) return 1.0;
  return std::min(1.0, config_.threshold_bytes / total);
}

bool Pipeline::close_windows_before(TimePoint t) {
  while (policy_->next_boundary() <= t) {
    const std::uint64_t close_begin = metrics_.window_close_ns ? mono_ns() : 0;
    const WindowEvent event = policy_->next_event();
    WindowReport report;
    report.index = event.index;
    report.start = event.start;
    report.end = event.end;
    report.hhhs = stage_->report(event, scope_phi());
    SinkContext ctx(*stage_);  // snapshot (if pulled) precedes any reset
    for (auto& sink : sinks_) sink->on_window(report, ctx);
    if (policy_->resets_state()) stage_->reset_state();
    policy_->advance();
    open_window_dirty_ = false;
    ++stats_.windows_closed;
    if (metrics_.windows != nullptr) {
      metrics_.windows->inc();
      metrics_.window_close_ns->observe(mono_ns() - close_begin);
    }
    if (config_.max_windows && stats_.windows_closed >= *config_.max_windows) {
      return false;
    }
  }
  return true;
}

RunStats Pipeline::run() {
  std::vector<PacketRecord> buffer(config_.batch_size);
  bool running = true;
  while (running) {
    const std::size_t n = source_->next_batch(buffer);
    if (n == 0) break;
    const std::span<const PacketRecord> batch(buffer.data(), n);
    // Close due windows, then hand the stage the maximal run of packets
    // inside the open window — boundaries close in order and the stage's
    // add_batch fast paths see the largest possible spans.
    std::size_t i = 0;
    while (i < n) {
      if (!(running = close_windows_before(batch[i].ts))) break;
      const TimePoint window_end = policy_->next_boundary();
      std::size_t j = i + 1;
      while (j < n && batch[j].ts < window_end) ++j;
      const auto chunk = batch.subspan(i, j - i);
      stage_->ingest(chunk);
      open_window_dirty_ = true;
      stats_.packets += chunk.size();
      const std::uint64_t bytes_before = stats_.bytes;
      for (const auto& p : chunk) stats_.bytes += p.ip_len;
      // Chunk-granular instrumentation: a handful of relaxed RMWs per
      // multi-thousand-packet chunk, nothing per packet.
      if (metrics_.packets != nullptr) {
        metrics_.packets->inc(chunk.size());
        metrics_.bytes->inc(stats_.bytes - bytes_before);
        metrics_.batches->inc();
        metrics_.batch_packets->observe(chunk.size());
      }
      i = j;
    }
    if (running && config_.wall_clock) {
      if (const auto now = source_->stream_now()) {
        running = close_windows_before(*now);
      }
    }
  }
  if (running && config_.finish_at) {
    running = close_windows_before(*config_.finish_at);
  }
  if (running && config_.flush_open_window && open_window_dirty_) {
    close_windows_before(policy_->next_boundary());
  }
  for (auto& sink : sinks_) sink->on_finish();
  return stats_;
}

}  // namespace hhh::pipeline
