/// \file
/// CollectorService — the long-running collector daemon behind
/// `hhh-collectord`: N live vantages stream epoch frames in over TCP or
/// Unix-domain sockets, the service aligns them into epochs
/// (service/epoch_aligner.hpp), merges each epoch through the shared
/// MergeLedger, folds epochs into a cumulative ledger, and optionally
/// re-publishes its own merged epoch stream upstream — collectors
/// compose into aggregation trees.
///
/// Structure: one poll(2) loop on one thread, plus at most one
/// background absorb of a closed epoch into the cumulative ledger. The
/// reveal does not wait for that all-time bookkeeping: close_epoch folds
/// and reports the epoch, starts its absorb and goes straight on to
/// publish and the epoch callback. Every reader of the cumulative ledger
/// (the next close, a late fold, cumulative_report(), the exits of run(),
/// the destructor) first settles the absorb in flight, so epochs absorb
/// one at a time in close order. A close that itself reads the ledger
/// (a checkpoint or `--out` is configured) runs its absorb on the loop
/// thread at that read, as a deferred task. Each connection carries an
/// incremental SnapshotFrameReader, so frames are decoded correctly
/// across arbitrary TCP chunk boundaries. Per-connection backpressure is
/// the slowest-reader policy: a vantage whose buffered epoch count
/// exceeds the cap stops being read (its kernel socket buffer fills and
/// TCP pushes back) until the collector drains below half the cap —
/// a fast sender cannot balloon the daemon's memory, and a slow or
/// stalled sender cannot block healthy ones (epochs close by grace
/// without it).
///
/// Crash recovery: after every epoch close the service atomically
/// rewrites its checkpoint (one kCollectorCheckpoint frame: parameters,
/// the cumulative ledger, the per-vantage incorporated-epoch sets and
/// the aligner's pending buckets). A restart restores the checkpoint —
/// refusing one written under different parameters — and the
/// (vantage, epoch) incorporated sets make re-delivered frames from
/// reconnecting vantages idempotent, so SIGTERM mid-epoch + restart
/// converges to the same merged reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/snapshot_stream.hpp"
#include "service/endpoint.hpp"
#include "service/epoch_aligner.hpp"
#include "service/merge.hpp"
#include "service/socket.hpp"
#include "service/stats_server.hpp"
#include "service/vantage_client.hpp"

namespace hhh::service {

/// Daemon configuration.
struct CollectorOptions {
  std::vector<Endpoint> listen;            ///< at least one listen address
  std::int64_t window_ns = 60'000'000'000; ///< epoch grid (must match vantages)
  std::int64_t grace_ns = 2'000'000'000;   ///< straggler wait per epoch
  std::size_t expected_vantages = 0;       ///< 0 = adaptive completeness
  std::int64_t skew_tolerance_ns = 0;      ///< 0 = window / 4
  Thresholds thresholds;                   ///< merge/extraction thresholds
  std::string checkpoint_path;             ///< "" = no crash recovery
  std::string out_path;                    ///< cumulative merged stream ("" = none)
  std::optional<Endpoint> publish;         ///< upstream collector to feed
  std::string publish_name = "collector";  ///< vantage name prefix upstream
  double publish_retry_s = 10.0;           ///< upstream reconnect budget
  double idle_exit_s = 0.0;                ///< exit after this idle stretch (0 = never)
  std::size_t max_pending_frames = 64;     ///< backpressure cap per vantage
  /// Serve Prometheus text at /metrics and the JSON snapshot at
  /// /metrics.json on this endpoint (scraped mid-run; unset = no server).
  std::optional<Endpoint> metrics;
  /// Emit one structured stats log line every this many seconds from the
  /// poll loop (0 = off).
  double stats_interval_s = 0.0;
};

/// Observability counters (every field monotonic). A value view over the
/// service's atomic metric registry — see CollectorService::stats().
struct CollectorStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t frames_received = 0;   ///< epoch frames accepted into buckets
  std::uint64_t epochs_closed = 0;
  std::uint64_t epochs_incomplete = 0; ///< closed by grace with vantages missing
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t late_folds = 0;        ///< post-close frames folded cumulatively
  std::uint64_t protocol_errors = 0;   ///< typed per-connection failures
  std::uint64_t dirty_disconnects = 0; ///< EOF without a bye (peer crash)
  std::uint64_t clean_disconnects = 0; ///< bye/ack handshakes completed
  std::uint64_t backpressure_pauses = 0;
};

/// Why run() returned.
enum class RunOutcome : std::uint8_t {
  kStopped,   ///< stop() was called (signal); checkpoint written, state kept
  kIdleExit,  ///< idle-exit policy fired after the fleet drained
};

/// The daemon described in the file header.
class CollectorService {
 public:
  /// A service with `options`; nothing is bound until start().
  explicit CollectorService(CollectorOptions options);
  ~CollectorService();

  CollectorService(const CollectorService&) = delete;
  CollectorService& operator=(const CollectorService&) = delete;

  /// Bind every listen endpoint and restore the checkpoint when one
  /// exists. Throws std::runtime_error on bind failure,
  /// wire::WireFormatError (kParamsMismatch) on a checkpoint written
  /// under different parameters.
  void start();

  /// The poll loop: runs until stop() or idle-exit. Call from one
  /// thread; stop() may be called from any thread or a signal handler.
  RunOutcome run();

  /// Request run() to return (async-signal-safe: one atomic store plus a
  /// self-pipe write).
  void stop() noexcept;

  /// The kernel-assigned port of the first TCP listener (after start();
  /// how tests listen on port 0). 0 when only Unix listeners exist.
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Port of the metrics scrape listener (after start(); 0 when no
  /// `metrics` endpoint is configured or it is a Unix socket).
  std::uint16_t metrics_tcp_port() const noexcept {
    return stats_server_ ? stats_server_->tcp_port() : 0;
  }

  /// Snapshot of the counters. Thread-safe and tear-free: every field is
  /// one relaxed atomic load from this service's registry, so a reader
  /// concurrent with the poll loop sees each counter whole (values may
  /// lag, totals are never half-written).
  CollectorStats stats() const;

  /// This service's full metric state (counters, gauges, latency
  /// histograms) merged with the process-wide registry (pipeline /
  /// sharded-engine / sink series) — what the scrape endpoint serves.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// True when start() restored state from an existing checkpoint.
  bool restored_from_checkpoint() const noexcept { return restored_; }

  /// The cumulative merged report, through the last closed epoch: waits
  /// for the absorb in flight first. Call after run() returned or from
  /// the epoch callback (the loop thread); not synchronized with a
  /// running loop from any other thread.
  LedgerReport cumulative_report();

  /// The cumulative ledger itself (what the checkpoint and `--out`
  /// save), after the absorb in flight. Same calling rule as
  /// cumulative_report().
  const MergeLedger& cumulative_ledger();

  /// Invoked in the loop thread after each epoch close with the closed
  /// epoch and that epoch's report. It runs while that epoch's absorb
  /// into the cumulative ledger may still be in flight on another thread;
  /// cumulative_report() from inside it waits for that absorb. Set before
  /// start().
  using EpochCallback = std::function<void(const ReadyEpoch&, const LedgerReport&)>;
  void set_epoch_callback(EpochCallback callback) { on_epoch_ = std::move(callback); }

 private:
  /// Sparse monotone set of epoch indices (the per-vantage incorporated
  /// record): every index < watermark is in the set, plus `ahead`.
  struct EpochIdSet {
    std::int64_t watermark = 0;
    std::set<std::int64_t> ahead;
    bool contains(std::int64_t index) const;
    void insert(std::int64_t index);
    void save(wire::Writer& w) const;
    void load(wire::Reader& r);
  };

  enum class ConnAction : std::uint8_t {
    kKeep,        ///< stay connected
    kCloseClean,  ///< bye/ack handshake completed
    kCloseError,  ///< typed protocol violation (already counted + logged)
    kCloseDirty,  ///< EOF or connection error without a bye (peer crash)
    kCloseStale,  ///< superseded by a reconnect under the same name
  };

  struct Conn {
    Fd fd;
    pipeline::SnapshotFrameReader reader;
    std::string name;        ///< vantage name (after the hello)
    std::string desc;        ///< log label (fd-based before the hello)
    bool got_hello = false;
    bool paused = false;     ///< backpressured: excluded from poll
    std::uint64_t frames = 0;
    ConnAction pending = ConnAction::kKeep;  ///< close scheduled for the sweep
  };

  /// Resolved handles into `metrics_` (registered at construction; one
  /// relaxed RMW per event on the poll loop, no lock anywhere).
  struct Counters {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* epochs_closed = nullptr;
    obs::Counter* epochs_incomplete = nullptr;
    obs::Counter* duplicates_dropped = nullptr;
    obs::Counter* late_folds = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* dirty_disconnects = nullptr;
    obs::Counter* clean_disconnects = nullptr;
    obs::Counter* backpressure_pauses = nullptr;
    obs::Gauge* connected_vantages = nullptr;
    obs::Gauge* pending_epochs = nullptr;
    obs::Histogram* epoch_close_latency_ns = nullptr;
    obs::Histogram* absorb_ns = nullptr;       ///< written by the absorb's thread too
    obs::Histogram* absorb_wait_ns = nullptr;
  };

  std::int64_t now_ns() const;
  void register_metrics();
  void note_vantage_frame(const std::string& vantage, std::int64_t index);
  void update_vantage_lag();
  void log_stats_line();
  void accept_pending(const Fd& listener);
  void service_conn(Conn& conn);
  ConnAction process_frames(Conn& conn);
  ConnAction handle_hello(Conn& conn, const wire::FrameView& frame);
  void handle_epoch_frame(Conn& conn, const wire::FrameView& frame);
  void close_conn(std::size_t i, ConnAction how);
  void close_epoch(ReadyEpoch&& epoch);
  /// Wait for the absorb in flight (run it here when deferred), then
  /// warn and count a protocol error per group the cumulative ledger
  /// refused. Every reader of `cumulative_` on the loop thread calls this
  /// first.
  void settle_absorb();
  void update_backpressure();
  bool incorporated(const std::string& vantage, std::int64_t index) const;
  void mark_incorporated(const std::string& vantage, std::int64_t index);
  void write_checkpoint();
  void load_checkpoint();
  void write_out_stream();
  void publish_epoch(const ReadyEpoch& epoch,
                     const std::vector<std::vector<std::uint8_t>>& group_frames,
                     const LedgerReport& report);

  CollectorOptions options_;
  EpochAligner aligner_;
  MergeLedger cumulative_;
  /// The one absorb into `cumulative_` in flight (invalid when none): it
  /// yields one line per group refused.
  std::future<std::vector<std::string>> absorbing_;
  std::map<std::string, EpochIdSet> incorporated_;
  std::map<std::string, std::unique_ptr<VantageClient>> publishers_;

  std::vector<Fd> listeners_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Fd wake_read_, wake_write_;  ///< self-pipe
  std::uint16_t tcp_port_ = 0;
  bool started_ = false;
  bool restored_ = false;
  bool ever_connected_ = false;
  std::int64_t last_activity_ns_ = 0;
  std::atomic<bool> stop_requested_{false};

  /// Per-instance registry: several services in one process (the fault
  /// matrix does this) keep fully independent counters; library-level
  /// series live in MetricsRegistry::process() and are merged at scrape.
  obs::MetricsRegistry metrics_;
  Counters ctr_;
  std::unique_ptr<StatsServer> stats_server_;
  /// Latest accepted epoch index per vantage and fleet-wide — the inputs
  /// to the per-vantage lag gauges (lag = fleet max − vantage's latest).
  std::map<std::string, std::int64_t> vantage_latest_epoch_;
  std::int64_t max_epoch_index_ = 0;
  std::int64_t last_stats_log_ns_ = 0;
  EpochCallback on_epoch_;
};

}  // namespace hhh::service
