#include "pipeline/source.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/pcap.hpp"
#include "trace/synthetic_trace.hpp"
#include "trace/trace_io.hpp"

namespace hhh::pipeline {

std::optional<PacketRecord> PacketSource::next() {
  PacketRecord p;
  if (next_batch({&p, 1}) == 0) return std::nullopt;
  return p;
}

namespace {

class SpanSource final : public PacketSource {
 public:
  explicit SpanSource(std::span<const PacketRecord> packets) : packets_(packets) {}

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

/// A streaming reader (anything with `std::optional<PacketRecord> next()`:
/// the synthetic generator, the binary and CSV trace readers) as a source.
template <typename Reader>
class ReaderSource final : public PacketSource {
 public:
  template <typename Arg>
  ReaderSource(std::string name, const Arg& arg) : reader_(arg), name_(std::move(name)) {}

  std::size_t next_batch(std::span<PacketRecord> out) override {
    std::size_t n = 0;
    while (n < out.size()) {
      auto p = reader_.next();
      if (!p) break;
      out[n++] = *p;
    }
    return n;
  }

  std::string name() const override { return name_; }

 private:
  Reader reader_;
  std::string name_;
};

class PcapSource final : public PacketSource {
 public:
  PcapSource(const std::string& path, bool rebase, PcapSourceStats* stats)
      : reader_(path), rebase_(rebase), stats_(stats) {}

  std::size_t next_batch(std::span<PacketRecord> out) override {
    std::size_t n = 0;
    while (n < out.size()) {
      auto p = reader_.next();
      if (!p) break;
      if (rebase_) {
        if (!first_) first_ = p->ts;
        p->ts = TimePoint() + (p->ts - *first_);
      }
      out[n++] = *p;
    }
    if (stats_) {
      stats_->decoded_v4 = reader_.packets_decoded_v4();
      stats_->decoded_v6 = reader_.packets_decoded_v6();
      stats_->skipped_non_ip = reader_.packets_skipped_non_ip();
      stats_->skipped_malformed = reader_.packets_skipped_malformed();
    }
    return n;
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

  std::size_t next_batch(std::span<PacketRecord> out) override {
    // Candidates come from the run held back by the last call, then from
    // fresh runs pulled from the inner source straight into `out`. One
    // clock read hands on every candidate already due; when none is,
    // sleep until the first one's deadline, so the pipeline sees stream
    // time advance at the delivery pace instead of blocking for a whole
    // batch. The first candidate not yet due ends the call.
    std::size_t n = 0;
    std::int64_t now = 0;
    while (n < out.size()) {
      const bool from_held = held_pos_ < held_.size();
      std::span<const PacketRecord> run;
      if (from_held) {
        run = std::span<const PacketRecord>(held_).subspan(held_pos_);
        run = run.first(std::min(run.size(), out.size() - n));
      } else {
        const std::size_t pulled =
            inner_->next_batch(out.subspan(n, std::min(out.size() - n, kMaxRun)));
        if (pulled == 0) break;
        run = out.subspan(n, pulled);
      }
      if (n == 0) now = clock_->now_ns();
      if (!started_) {
        started_ = true;
        wall_start_ns_ = now;
        trace_start_ = run.front().ts;
      }
      std::size_t due = count_due(run, now, delivered_ + n);
      if (due == 0 && n == 0) {
        clock_->sleep_until_ns(deadline_of(run.front(), delivered_));
        now = clock_->now_ns();
        due = std::max<std::size_t>(1, count_due(run, now, delivered_));
      }
      if (from_held) {
        std::copy_n(run.begin(), due, out.begin() + static_cast<std::ptrdiff_t>(n));
        held_pos_ += due;
        if (held_pos_ == held_.size()) {
          held_.clear();
          held_pos_ = 0;
        }
      } else {
        held_.assign(run.begin() + static_cast<std::ptrdiff_t>(due), run.end());
      }
      n += due;
      if (due < run.size()) break;
    }
    if (n > 0) {
      delivered_ += n;
      last_ts_ = out[n - 1].ts;
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
  // Packets pulled per refill. Bounds what is held back (and copied twice:
  // into the hold, then out of it) when only the head of a run is due.
  static constexpr std::size_t kMaxRun = 256;

  // Wall-clock deadline of `p`, the `index`-th packet delivered.
  std::int64_t deadline_of(const PacketRecord& p, std::uint64_t index) const {
    if (pace_.target_pps > 0.0) {
      return wall_start_ns_ + static_cast<std::int64_t>(
                                  static_cast<double>(index) / pace_.target_pps * 1e9);
    }
    if (pace_.speed > 0.0) {
      return wall_start_ns_ + static_cast<std::int64_t>(
                                  (p.ts - *trace_start_).to_seconds() / pace_.speed * 1e9);
    }
    return wall_start_ns_;  // unpaced
  }

  // Length of the prefix of `run` due at `now`, its first packet being the
  // `index`-th delivered (deadlines never decrease).
  std::size_t count_due(std::span<const PacketRecord> run, std::int64_t now,
                        std::uint64_t index) const {
    std::size_t due = 0;
    while (due < run.size() && deadline_of(run[due], index + due) <= now) ++due;
    return due;
  }

  std::unique_ptr<PacketSource> inner_;
  PaceConfig pace_;
  PaceClock* clock_;
  std::vector<PacketRecord> held_;  // pulled but not yet due, from held_pos_ on
  std::size_t held_pos_ = 0;
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
  return std::make_unique<ReaderSource<SyntheticTraceGenerator>>("synthetic", config);
}

std::unique_ptr<PacketSource> make_trace_source(const std::string& path) {
  return std::make_unique<ReaderSource<BinaryTraceReader>>("trace", path);
}

std::unique_ptr<PacketSource> make_csv_source(const std::string& path) {
  return std::make_unique<ReaderSource<CsvTraceReader>>("csv", path);
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
