/// \file
/// PacketSource — the ingestion end of the pipeline runtime.
///
/// Every packet producer in the library (the synthetic generator, the
/// binary/CSV trace readers, the pcap decoder, in-memory spans) adapts
/// to this one pull interface, so detectors, tools and examples stop
/// hand-rolling their own read loops. A source implements one call,
/// next_batch(), which fills a caller span; next() is a batch of one.
/// Sources stream: none of them needs the trace in memory (the span
/// source borrows one the caller already holds), so multi-gigapacket
/// replays run in constant space.
///
/// Pacing is a decorator, not a source property: PacedSource wraps any
/// inner source and delays delivery so packets arrive at a wall-clock
/// target rate (--pps) or proportionally to their record timestamps
/// (--speed), which is what turns an offline trace into a live replay.
/// It hands on runs pulled from the inner source's next_batch() and
/// reads the clock once per call, not once per packet.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace hhh {
struct TraceConfig;
}  // namespace hhh

namespace hhh::pipeline {

/// A pull-based, timestamp-ordered packet producer.
class PacketSource {
 public:
  /// Sources are owned polymorphically by the pipeline.
  virtual ~PacketSource() = default;

  /// Fill `out` from the stream; returns the number of packets written
  /// (0 = end of stream). Timestamps must be non-decreasing (the window
  /// policies' contract; late packets are accounted in the window that
  /// is open when they arrive). A source may return a partial batch
  /// before the end: paced sources return what is due, so the pipeline's
  /// clock keeps moving at the delivery rate.
  virtual std::size_t next_batch(std::span<PacketRecord> out) = 0;

  /// The next packet, or nullopt at end of stream: next_batch() over a
  /// span of one. A source need not override it.
  virtual std::optional<PacketRecord> next();

  /// The stream's current clock for wall-clock window policies: where the
  /// source has advanced to in trace time, independent of the last packet
  /// delivered. Paced sources map wall time back to trace time here;
  /// packet-clock sources return nullopt and the pipeline falls back to
  /// packet timestamps.
  virtual std::optional<TimePoint> stream_now() const { return std::nullopt; }

  /// Stable source identifier for stats and logs.
  virtual std::string name() const = 0;
};

/// In-memory source over caller-owned packets (offline analyses, tests).
/// Borrows: `packets` must outlive the source. next_batch() copies whole
/// runs.
std::unique_ptr<PacketSource> make_span_source(std::span<const PacketRecord> packets);
/// A temporary vector would dangle; keep the packets alive instead.
std::unique_ptr<PacketSource> make_span_source(std::vector<PacketRecord>&& packets) = delete;

/// The synthetic CAIDA-stand-in generator as a source (streams; the trace
/// is never materialized).
std::unique_ptr<PacketSource> make_synthetic_source(const TraceConfig& config);

/// Streaming reader over a binary HHT trace file (HHT2 or legacy HHT1).
/// Throws std::runtime_error on open failure / bad magic.
std::unique_ptr<PacketSource> make_trace_source(const std::string& path);

/// Streaming reader over a CSV trace file (malformed rows skipped).
std::unique_ptr<PacketSource> make_csv_source(const std::string& path);

/// Per-class decode accounting of a pcap source, updated as the source is
/// drained (complete once the source reports end of stream). Mirrors
/// PcapReader's counters so nothing a capture contained is silently lost.
struct PcapSourceStats {
  std::uint64_t decoded_v4 = 0;         ///< IPv4 packets delivered
  std::uint64_t decoded_v6 = 0;         ///< IPv6 packets delivered
  std::uint64_t skipped_non_ip = 0;     ///< non-IP ethertypes (ARP, LLDP, ...)
  std::uint64_t skipped_malformed = 0;  ///< structurally bad IP frames
};

/// Streaming pcap decoder as a source. With `rebase_timestamps` (the
/// default) record timestamps are rebased so the first packet lands at
/// t=0 — window arithmetic starts at trace start regardless of capture
/// epoch. Non-IP and malformed frames are skipped and counted into
/// `stats` when given (borrowed; must outlive the source). Throws
/// std::runtime_error on open failure.
std::unique_ptr<PacketSource> make_pcap_source(const std::string& path,
                                               bool rebase_timestamps = true,
                                               PcapSourceStats* stats = nullptr);

/// Pacing configuration for PacedSource. Exactly one of the two rates may
/// be set; both zero means unpaced (deliver as fast as possible).
struct PaceConfig {
  /// Deliver at this many packets per wall-clock second (token bucket over
  /// the packet count; record timestamps are preserved untouched).
  double target_pps = 0.0;
  /// Deliver proportionally to record timestamps, sped up by this factor
  /// (1.0 = real time, 60.0 = one trace minute per wall second).
  double speed = 0.0;
};

/// The wall clock PacedSource paces against. Production uses the process
/// steady clock; tests inject a fake so pacing arithmetic is asserted
/// deterministically instead of timing real sleeps against a loaded CI
/// machine (docs/TESTING.md: never assert on wall-clock durations).
class PaceClock {
 public:
  virtual ~PaceClock() = default;

  /// Monotonic now, in nanoseconds from an arbitrary epoch.
  virtual std::int64_t now_ns() = 0;

  /// Block until now_ns() >= deadline_ns (no-op when already past).
  virtual void sleep_until_ns(std::int64_t deadline_ns) = 0;
};

/// The process steady clock (PacedSource's default). Borrowed singleton.
PaceClock& steady_pace_clock();

/// Wrap `inner` with wall-clock pacing per `pace`, against `clock`
/// (nullptr = steady_pace_clock(); a non-null clock is borrowed and must
/// outlive the source). stream_now() maps wall time back to trace time so
/// wall-clock window policies can close windows through quiet stretches
/// of a paced replay.
std::unique_ptr<PacketSource> make_paced_source(std::unique_ptr<PacketSource> inner,
                                                const PaceConfig& pace,
                                                PaceClock* clock = nullptr);

}  // namespace hhh::pipeline
