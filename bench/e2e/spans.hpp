/// \file
/// Spans for the traced run. Every call into a layer's public interface is
/// timed from outside the library (the decorators in layers.hpp and the
/// collector replay in fleet.cpp) and recorded as one span: layer, start
/// and end on the steady clock, the enclosing span, the epoch it served
/// and the thread (track) it ran on. Spans stay in memory until the pass
/// ends; a layer's self time is its duration minus its children's.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hhh::e2e {

/// Nanoseconds on the steady clock — the clock CollectorService stamps
/// frame arrivals with, so bench and collector timestamps compare.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries a span can sit on.
enum class Layer : std::uint8_t {
  // Vantage side (one log per vantage thread).
  kVantage,    ///< the vantage's whole run: Pipeline::run + VantageClient::finish
  kSource,     ///< PacketSource::next_batch on the pipeline's outermost source
  kPaceWait,   ///< PaceClock::sleep_until_ns calls that actually slept
  kIngest,     ///< MeasurementStage::ingest
  kExtract,    ///< MeasurementStage::report
  kReset,      ///< MeasurementStage::reset_state
  kSink,       ///< the bench's ReportSink::on_window (snapshot + send)
  kEncode,     ///< MeasurementStage::snapshot
  kSend,       ///< VantageClient::send_epoch and finish
  // Collector replay (one log, replayed after the pass).
  kReplay,     ///< one replayed epoch
  kParse,      ///< parse_frame + parse_epoch (CRC included)
  kAlign,      ///< EpochAligner::offer / drain
  kDecode,     ///< decode_scope
  kFold,       ///< MergeLedger::fold
  kMergeReport,  ///< MergeLedger::report
  kGroupFrames,  ///< MergeLedger::save_group_frames
  kAbsorb,       ///< MergeLedger::absorb
  kCheckpoint,   ///< save_state + build_frame + write_file
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Stable span name ("core.ingest", ...).
const char* layer_name(Layer layer) noexcept;

/// One recorded call.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t epoch = 0;    ///< the epoch the call served
  std::int32_t parent = -1;  ///< index of the enclosing span in the same log
  Layer layer = Layer::kVantage;
};

/// One thread's spans, in open order. Never shared while recording.
class SpanLog {
 public:
  /// A log for `track` (vantage index, or the replay track).
  explicit SpanLog(int track) : track_(track) {}

  /// Open a span on `layer` under the innermost open span.
  std::int32_t open(Layer layer);
  /// Close the innermost open span (`index` is the value open() returned).
  void close(std::int32_t index);

  /// Attribute spans opened from now on to `epoch`.
  void set_epoch(std::int64_t epoch) noexcept { epoch_ = epoch; }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  int track() const noexcept { return track_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t epoch_ = 0;
  int track_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer) : log_(log), index_(log ? log->open(layer) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Per-layer call counts, inclusive time and self time over some logs.
struct LayerTimes {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<double, kLayerCount> total_s{};
  std::array<double, kLayerCount> self_s{};

  /// Accumulate one log.
  void add(const SpanLog& log);
  /// Accumulate another set of totals.
  void add(const LayerTimes& other);

  double self(Layer layer) const { return self_s[static_cast<std::size_t>(layer)]; }
  double total(Layer layer) const { return total_s[static_cast<std::size_t>(layer)]; }
  std::uint64_t count(Layer layer) const { return calls[static_cast<std::size_t>(layer)]; }
};

/// One revealed epoch on the live collector's track: arrival of its first
/// frame to the epoch callback.
struct CollectorEpochSpan {
  std::int64_t index = 0;
  std::int64_t first_seen_ns = 0;
  std::int64_t reveal_ns = 0;
};

/// Write one pass's spans as Chrome trace-event JSON (loads in Perfetto
/// and chrome://tracing): one complete event per span on its log's track,
/// labelled by `track_names`, and one async event per collector epoch.
/// Throws std::runtime_error on I/O failure.
void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& track_names,
                        const std::vector<CollectorEpochSpan>& collector_epochs);

}  // namespace hhh::e2e
