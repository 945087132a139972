/// \file
/// Every implementation of a pipeline interface the bench installs, in one
/// place so an interface change edits one file:
///
///  * LoopSource — the load generator: replays a pre-generated trace;
///  * EpochSink — what `hhh-live --connect`'s sink does (snapshot, then
///    VantageClient::send_epoch), plus the timestamps the latency metrics
///    need;
///  * TimedSource / TimedStage / TimedPaceClock — the traced run's
///    decorators, timing each call into the wrapped layer as a span.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ip.hpp"
#include "pipeline/sink.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stage.hpp"
#include "service/vantage_client.hpp"
#include "spans.hpp"

namespace hhh::e2e {

/// Replays a trace `loops` times, shifting loop k's timestamps by k trace
/// lengths. next_batch copies whole runs with memcpy. The trace is
/// borrowed and must outlive the source.
class LoopSource final : public pipeline::PacketSource {
 public:
  LoopSource(std::span<const PacketRecord> trace, Duration loop_span, std::size_t loops);

  std::optional<PacketRecord> next() override;
  std::size_t next_batch(std::span<PacketRecord> out) override;
  std::string name() const override { return "e2e_loop"; }

  /// Steady-clock time of the first pull (0 before it).
  std::int64_t first_pull_ns() const noexcept { return first_pull_ns_; }

 private:
  /// Note the first pull and step to the next loop at a trace's end;
  /// false once every loop is delivered.
  bool ready();

  std::span<const PacketRecord> trace_;
  Duration loop_span_;
  std::size_t loops_;
  std::size_t loop_ = 0;
  std::size_t pos_ = 0;
  Duration shift_;
  std::int64_t first_pull_ns_ = 0;
};

/// What one vantage's sink saw, by window index.
struct VantageLog {
  std::vector<std::int64_t> close_ns;           ///< steady time on_window was entered
  std::vector<std::vector<PrefixKey>> reports;  ///< the window's own HHH prefixes
  std::uint64_t frames = 0;                     ///< snapshot frames sent
  std::uint64_t frame_bytes = 0;                ///< their total size
};

/// Ships each closed window as one epoch frame, like hhh-live's
/// ConnectSink, and records what the latency and correctness checks
/// need. `client` and `log` are borrowed; `spans` may be null.
class EpochSink final : public pipeline::ReportSink {
 public:
  EpochSink(service::VantageClient& client, VantageLog& log, SpanLog* spans)
      : client_(client), log_(log), spans_(spans) {}

  void on_window(const WindowReport& report, pipeline::SinkContext& ctx) override;

 private:
  service::VantageClient& client_;
  VantageLog& log_;
  SpanLog* spans_;
};

/// Times PacketSource::next_batch / next on the wrapped source.
class TimedSource final : public pipeline::PacketSource {
 public:
  TimedSource(std::unique_ptr<pipeline::PacketSource> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::optional<PacketRecord> next() override;
  std::size_t next_batch(std::span<PacketRecord> out) override;
  std::optional<TimePoint> stream_now() const override { return inner_->stream_now(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pipeline::PacketSource> inner_;
  SpanLog& spans_;
};

/// Times every MeasurementStage call on the wrapped stage.
class TimedStage final : public pipeline::MeasurementStage {
 public:
  TimedStage(std::unique_ptr<pipeline::MeasurementStage> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void ingest(std::span<const PacketRecord> run) override;
  HhhSet report(const pipeline::WindowEvent& event, double phi) override;
  void reset_state() override;
  bool serializable() const override { return inner_->serializable(); }
  std::vector<std::uint8_t> snapshot() const override;
  std::uint64_t total_bytes() const override { return inner_->total_bytes(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pipeline::MeasurementStage> inner_;
  SpanLog& spans_;
  std::int64_t epoch_ = 0;
};

/// The steady clock PacedSource paces against, timing each sleep.
class TimedPaceClock final : public pipeline::PaceClock {
 public:
  explicit TimedPaceClock(SpanLog& spans) : spans_(spans) {}

  std::int64_t now_ns() override { return e2e::now_ns(); }
  void sleep_until_ns(std::int64_t deadline_ns) override;

 private:
  SpanLog& spans_;
};

}  // namespace hhh::e2e
