#include "pipeline/source.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "net/pcap.hpp"
#include "trace/synthetic_trace.hpp"
#include "trace/trace_io.hpp"

namespace hhh::pipeline {

std::size_t PacketSource::next_batch(std::span<PacketRecord> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    auto p = next();
    if (!p) break;
    out[n++] = *p;
  }
  return n;
}

namespace {

class SpanSource final : public PacketSource {
 public:
  explicit SpanSource(std::span<const PacketRecord> packets) : packets_(packets) {}

  std::optional<PacketRecord> next() override {
    if (pos_ >= packets_.size()) return std::nullopt;
    return packets_[pos_++];
  }

  std::size_t next_batch(std::span<PacketRecord> out) override {
    const std::size_t n = std::min(out.size(), packets_.size() - pos_);
    std::copy_n(packets_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out.begin());
    pos_ += n;
    return n;
  }

  std::string name() const override { return "span"; }

 private:
  std::span<const PacketRecord> packets_;
  std::size_t pos_ = 0;
};

class SyntheticSource final : public PacketSource {
 public:
  explicit SyntheticSource(const TraceConfig& config) : generator_(config) {}

  std::optional<PacketRecord> next() override { return generator_.next(); }

  std::string name() const override { return "synthetic"; }

 private:
  SyntheticTraceGenerator generator_;
};

class TraceFileSource final : public PacketSource {
 public:
  explicit TraceFileSource(const std::string& path) : reader_(path) {}

  std::optional<PacketRecord> next() override { return reader_.next(); }

  std::string name() const override { return "trace"; }

 private:
  BinaryTraceReader reader_;
};

class CsvFileSource final : public PacketSource {
 public:
  explicit CsvFileSource(const std::string& path) : reader_(path) {}

  std::optional<PacketRecord> next() override { return reader_.next(); }

  std::string name() const override { return "csv"; }

 private:
  CsvTraceReader reader_;
};

class PcapSource final : public PacketSource {
 public:
  PcapSource(const std::string& path, bool rebase, PcapSourceStats* stats)
      : reader_(path), rebase_(rebase), stats_(stats) {}

  std::optional<PacketRecord> next() override {
    auto p = reader_.next();
    if (stats_) {
      stats_->decoded_v4 = reader_.packets_decoded_v4();
      stats_->decoded_v6 = reader_.packets_decoded_v6();
      stats_->skipped_non_ip = reader_.packets_skipped_non_ip();
      stats_->skipped_malformed = reader_.packets_skipped_malformed();
    }
    if (!p) return std::nullopt;
    if (rebase_) {
      if (!first_) first_ = p->ts;
      p->ts = TimePoint() + (p->ts - *first_);
    }
    return p;
  }

  std::string name() const override { return "pcap"; }

 private:
  PcapReader reader_;
  bool rebase_;
  PcapSourceStats* stats_;
  std::optional<TimePoint> first_;
};

class SteadyPaceClock final : public PaceClock {
 public:
  std::int64_t now_ns() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void sleep_until_ns(std::int64_t deadline_ns) override {
    const std::int64_t now = now_ns();
    if (deadline_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
    }
  }
};

class PacedSource final : public PacketSource {
 public:
  PacedSource(std::unique_ptr<PacketSource> inner, const PaceConfig& pace,
              PaceClock* clock)
      : inner_(std::move(inner)), pace_(pace),
        clock_(clock != nullptr ? clock : &steady_pace_clock()) {}

  std::optional<PacketRecord> next() override {
    // Consume the packet next_batch() may have buffered first, or mixing
    // the two interfaces would deliver out of timestamp order.
    auto p = lookahead_ ? std::exchange(lookahead_, std::nullopt) : inner_->next();
    if (!p) return std::nullopt;
    clock_->sleep_until_ns(deadline_of(*p));
    note_delivery(*p);
    return p;
  }

  std::size_t next_batch(std::span<PacketRecord> out) override {
    // Deliver everything already due without sleeping; once at least one
    // packet is out, stop at the first deadline still in the future so the
    // pipeline sees stream time advance at the delivery pace instead of
    // blocking for a whole batch.
    std::size_t n = 0;
    while (n < out.size()) {
      if (!lookahead_) {
        lookahead_ = inner_->next();
        if (!lookahead_) break;
      }
      const std::int64_t deadline = deadline_of(*lookahead_);
      if (n > 0 && deadline > clock_->now_ns()) break;
      clock_->sleep_until_ns(deadline);
      out[n++] = *lookahead_;
      note_delivery(*lookahead_);
      lookahead_.reset();
    }
    return n;
  }

  std::optional<TimePoint> stream_now() const override {
    if (!started_) return std::nullopt;
    if (pace_.speed > 0.0) {
      const double elapsed_s =
          static_cast<double>(clock_->now_ns() - wall_start_ns_) / 1e9;
      return *trace_start_ + Duration::from_seconds(elapsed_s * pace_.speed);
    }
    // Token-bucket pacing preserves record timestamps but decouples them
    // from wall time; the best stream clock is the last delivered instant.
    return last_ts_;
  }

  std::string name() const override { return inner_->name() + "+paced"; }

 private:
  std::int64_t deadline_of(const PacketRecord& p) {
    if (!started_) {
      started_ = true;
      wall_start_ns_ = clock_->now_ns();
      trace_start_ = p.ts;
    }
    if (pace_.target_pps > 0.0) {
      return wall_start_ns_ + static_cast<std::int64_t>(
                                  static_cast<double>(delivered_) / pace_.target_pps * 1e9);
    }
    if (pace_.speed > 0.0) {
      return wall_start_ns_ + static_cast<std::int64_t>(
                                  (p.ts - *trace_start_).to_seconds() / pace_.speed * 1e9);
    }
    return wall_start_ns_;  // unpaced
  }

  void note_delivery(const PacketRecord& p) {
    ++delivered_;
    last_ts_ = p.ts;
  }

  std::unique_ptr<PacketSource> inner_;
  PaceConfig pace_;
  PaceClock* clock_;
  std::optional<PacketRecord> lookahead_;
  bool started_ = false;
  std::int64_t wall_start_ns_ = 0;
  std::optional<TimePoint> trace_start_;
  std::uint64_t delivered_ = 0;
  TimePoint last_ts_;
};

}  // namespace

PaceClock& steady_pace_clock() {
  static SteadyPaceClock clock;
  return clock;
}

std::unique_ptr<PacketSource> make_span_source(std::span<const PacketRecord> packets) {
  return std::make_unique<SpanSource>(packets);
}

std::unique_ptr<PacketSource> make_synthetic_source(const TraceConfig& config) {
  return std::make_unique<SyntheticSource>(config);
}

std::unique_ptr<PacketSource> make_trace_source(const std::string& path) {
  return std::make_unique<TraceFileSource>(path);
}

std::unique_ptr<PacketSource> make_csv_source(const std::string& path) {
  return std::make_unique<CsvFileSource>(path);
}

std::unique_ptr<PacketSource> make_pcap_source(const std::string& path,
                                               bool rebase_timestamps,
                                               PcapSourceStats* stats) {
  return std::make_unique<PcapSource>(path, rebase_timestamps, stats);
}

std::unique_ptr<PacketSource> make_paced_source(std::unique_ptr<PacketSource> inner,
                                                const PaceConfig& pace, PaceClock* clock) {
  return std::make_unique<PacedSource>(std::move(inner), pace, clock);
}

}  // namespace hhh::pipeline
