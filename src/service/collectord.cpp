#include "service/collectord.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/log.hpp"
#include "service/frame_stream.hpp"
#include "wire/codec.hpp"

namespace hhh::service {

namespace {

/// Checkpoint payload layout version (independent of the engine wire
/// version, which covers the embedded ledger frames).
constexpr std::uint16_t kCheckpointVersion = 1;

bool file_exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

}  // namespace

// ---------------------------------------------------------------- EpochIdSet

bool CollectorService::EpochIdSet::contains(std::int64_t index) const {
  return index < watermark || ahead.contains(index);
}

void CollectorService::EpochIdSet::insert(std::int64_t index) {
  if (index < watermark) return;
  ahead.insert(index);
  while (ahead.contains(watermark)) {
    ahead.erase(watermark);
    ++watermark;
  }
}

void CollectorService::EpochIdSet::save(wire::Writer& w) const {
  w.i64(watermark);
  w.u64(ahead.size());
  for (const std::int64_t index : ahead) w.i64(index);
}

void CollectorService::EpochIdSet::load(wire::Reader& r) {
  watermark = r.i64();
  const std::uint64_t n = r.count(8);
  for (std::uint64_t i = 0; i < n; ++i) ahead.insert(r.i64());
}

// ----------------------------------------------------------------- lifecycle

CollectorService::CollectorService(CollectorOptions options)
    : options_(std::move(options)),
      aligner_(AlignerParams{.window_ns = options_.window_ns,
                             .grace_ns = options_.grace_ns,
                             .expected_vantages = options_.expected_vantages,
                             .skew_tolerance_ns = options_.skew_tolerance_ns}),
      cumulative_(options_.thresholds) {
  register_metrics();
}

CollectorService::~CollectorService() {
  // The absorb in flight writes `cumulative_`: let it finish first.
  if (absorbing_.valid()) absorbing_.wait();
}

void CollectorService::register_metrics() {
  ctr_.connections_accepted =
      &metrics_.counter("hhh_collector_connections_accepted_total", {},
                        "Sockets accepted from vantages");
  ctr_.frames_received = &metrics_.counter("hhh_collector_frames_received_total", {},
                                           "Epoch frames accepted into buckets");
  ctr_.epochs_closed = &metrics_.counter("hhh_collector_epochs_closed_total", {},
                                         "Epochs merged and reported");
  ctr_.epochs_incomplete =
      &metrics_.counter("hhh_collector_epochs_incomplete_total", {},
                        "Epochs closed by grace with vantages missing");
  ctr_.duplicates_dropped = &metrics_.counter(
      "hhh_collector_duplicates_dropped_total", {}, "Re-delivered frames dropped");
  ctr_.late_folds = &metrics_.counter("hhh_collector_late_folds_total", {},
                                      "Post-close frames folded cumulatively");
  ctr_.protocol_errors = &metrics_.counter("hhh_collector_protocol_errors_total", {},
                                           "Typed per-connection failures");
  ctr_.dirty_disconnects = &metrics_.counter("hhh_collector_dirty_disconnects_total",
                                             {}, "EOF without a bye (peer crash)");
  ctr_.clean_disconnects = &metrics_.counter("hhh_collector_clean_disconnects_total",
                                             {}, "Bye/ack handshakes completed");
  ctr_.backpressure_pauses =
      &metrics_.counter("hhh_collector_backpressure_pauses_total", {},
                        "Read suspensions of flooding vantages");
  ctr_.connected_vantages = &metrics_.gauge("hhh_collector_connected_vantages", {},
                                            "Vantages past the hello handshake");
  ctr_.pending_epochs = &metrics_.gauge("hhh_collector_pending_epochs", {},
                                        "Epoch buckets currently open");
  ctr_.epoch_close_latency_ns =
      &metrics_.histogram("hhh_collector_epoch_close_latency_ns", {},
                          "Arrival of an epoch's first frame to its close");
  ctr_.absorb_ns = &metrics_.histogram(
      "hhh_collector_absorb_ns", {},
      "Absorb of a closed epoch into the cumulative ledger, wherever it runs");
  ctr_.absorb_wait_ns = &metrics_.histogram(
      "hhh_collector_absorb_wait_ns", {},
      "Poll-loop time blocked on the background absorb before reading the ledger");
}

std::int64_t CollectorService::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CollectorService::start() {
  if (options_.listen.empty()) {
    throw std::runtime_error("collector: no listen endpoints configured");
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);
  set_nonblocking(wake_read_.get(), true);
  set_nonblocking(wake_write_.get(), true);

  for (const Endpoint& ep : options_.listen) {
    std::uint16_t port = 0;
    Fd fd = listen_on(ep, &port);
    set_nonblocking(fd.get(), true);
    if (ep.kind == Endpoint::Kind::kTcp && tcp_port_ == 0) tcp_port_ = port;
    HHH_INFO << "collector: listening on " << ep.to_string()
             << (ep.kind == Endpoint::Kind::kTcp ? " (port " + std::to_string(port) + ")"
                                                 : "");
    listeners_.push_back(std::move(fd));
  }
  if (options_.metrics) {
    stats_server_ = std::make_unique<StatsServer>(
        *options_.metrics, [this](std::string_view path) {
          if (path == "/metrics") {
            return StatsResponse{.status = 200,
                                 .content_type = "text/plain; version=0.0.4",
                                 .body = obs::render_prometheus(metrics_snapshot())};
          }
          if (path == "/metrics.json") {
            return StatsResponse{.status = 200,
                                 .content_type = "application/json",
                                 .body = obs::render_json(metrics_snapshot())};
          }
          return StatsResponse{.status = 404,
                               .content_type = "text/plain",
                               .body = "try /metrics or /metrics.json\n"};
        });
    HHH_INFO << "collector: metrics on " << options_.metrics->to_string()
             << (options_.metrics->kind == Endpoint::Kind::kTcp
                     ? " (port " + std::to_string(stats_server_->tcp_port()) + ")"
                     : "");
  }
  if (!options_.checkpoint_path.empty() && file_exists(options_.checkpoint_path)) {
    load_checkpoint();
  }
  started_ = true;
}

void CollectorService::stop() noexcept {
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_write_) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
  }
}

CollectorStats CollectorService::stats() const {
  CollectorStats s;
  s.connections_accepted = ctr_.connections_accepted->value();
  s.frames_received = ctr_.frames_received->value();
  s.epochs_closed = ctr_.epochs_closed->value();
  s.epochs_incomplete = ctr_.epochs_incomplete->value();
  s.duplicates_dropped = ctr_.duplicates_dropped->value();
  s.late_folds = ctr_.late_folds->value();
  s.protocol_errors = ctr_.protocol_errors->value();
  s.dirty_disconnects = ctr_.dirty_disconnects->value();
  s.clean_disconnects = ctr_.clean_disconnects->value();
  s.backpressure_pauses = ctr_.backpressure_pauses->value();
  return s;
}

obs::MetricsSnapshot CollectorService::metrics_snapshot() const {
  obs::MetricsSnapshot snap = metrics_.snapshot();
  snap.merge(obs::MetricsRegistry::process().snapshot());
  return snap;
}

void CollectorService::note_vantage_frame(const std::string& vantage,
                                          std::int64_t index) {
  auto& latest = vantage_latest_epoch_[vantage];
  latest = std::max(latest, index);
  max_epoch_index_ = std::max(max_epoch_index_, index);
  update_vantage_lag();
}

void CollectorService::update_vantage_lag() {
  // Off the packet path (one pass per received frame over a small fleet);
  // gauge resolution is idempotent, so reconnects reuse the same series.
  for (const auto& [name, latest] : vantage_latest_epoch_) {
    metrics_
        .gauge("hhh_collector_vantage_lag_epochs", {{"vantage", name}},
               "Fleet-max epoch index minus this vantage's latest frame")
        .set(max_epoch_index_ - latest);
  }
}

void CollectorService::log_stats_line() {
  const CollectorStats s = stats();
  std::ostringstream line;
  line << "collector: stats"
       << " connections=" << s.connections_accepted
       << " frames=" << s.frames_received << " epochs_closed=" << s.epochs_closed
       << " epochs_incomplete=" << s.epochs_incomplete
       << " duplicates=" << s.duplicates_dropped << " late_folds=" << s.late_folds
       << " protocol_errors=" << s.protocol_errors
       << " dirty_disconnects=" << s.dirty_disconnects
       << " clean_disconnects=" << s.clean_disconnects
       << " backpressure_pauses=" << s.backpressure_pauses
       << " pending_epochs=" << aligner_.pending_epochs()
       << " connected=" << ctr_.connected_vantages->value();
  // --stats-interval is itself the opt-in: emit through the logger's
  // primitive (single write, timestamped) regardless of the threshold,
  // so the cadence never also requires --verbose.
  log_line(LogLevel::kInfo, line.str());
}

// ---------------------------------------------------------------- poll loop

RunOutcome CollectorService::run() {
  if (!started_) throw std::logic_error("CollectorService::run before start()");
  last_activity_ns_ = now_ns();

  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed)) {
      // Signal-driven shutdown: persist everything mid-epoch so a
      // restart converges; the fleet keeps running and will reconnect.
      settle_absorb();
      write_checkpoint();
      write_out_stream();
      HHH_INFO << "collector: stop requested; checkpoint written";
      return RunOutcome::kStopped;
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{.fd = wake_read_.get(), .events = POLLIN, .revents = 0});
    for (const Fd& listener : listeners_) {
      fds.push_back(pollfd{.fd = listener.get(), .events = POLLIN, .revents = 0});
    }
    const std::size_t stats_at = fds.size();
    if (stats_server_) {
      fds.push_back(
          pollfd{.fd = stats_server_->listener_fd(), .events = POLLIN, .revents = 0});
    }
    std::vector<std::size_t> conn_of_fd;  // conns_ index per conn pollfd
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i]->paused || conns_[i]->pending != ConnAction::kKeep) continue;
      fds.push_back(pollfd{.fd = conns_[i]->fd.get(), .events = POLLIN, .revents = 0});
      conn_of_fd.push_back(i);
    }

    const std::int64_t now = now_ns();
    std::int64_t timeout_ms = 500;  // idle housekeeping tick
    if (const auto deadline = aligner_.next_deadline_ns()) {
      timeout_ms = std::clamp<std::int64_t>((*deadline - now) / 1'000'000, 0, timeout_ms);
    }
    const int rc = ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }

    if (rc > 0) {
      std::size_t at = 0;
      if (fds[at].revents & POLLIN) {  // drain the self-pipe
        std::uint8_t sink[64];
        while (read_some(wake_read_.get(), sink, sizeof(sink)).status ==
               ReadStatus::kData) {
        }
      }
      ++at;
      for (const Fd& listener : listeners_) {
        if (fds[at].revents & POLLIN) accept_pending(listener);
        ++at;
      }
      if (stats_server_) {
        if (fds[stats_at].revents & POLLIN) stats_server_->serve_pending();
        ++at;
      }
      for (std::size_t k = 0; k < conn_of_fd.size(); ++k) {
        if (fds[at + k].revents & (POLLIN | POLLERR | POLLHUP)) {
          service_conn(*conns_[conn_of_fd[k]]);
        }
      }
    }

    // Sweep scheduled closes (reverse order keeps earlier indices valid).
    for (std::size_t i = conns_.size(); i-- > 0;) {
      if (conns_[i]->pending != ConnAction::kKeep) close_conn(i, conns_[i]->pending);
    }

    for (ReadyEpoch& epoch : aligner_.drain(now_ns())) close_epoch(std::move(epoch));
    update_backpressure();
    ctr_.pending_epochs->set(static_cast<std::int64_t>(aligner_.pending_epochs()));

    if (options_.stats_interval_s > 0.0 &&
        static_cast<double>(now_ns() - last_stats_log_ns_) >=
            options_.stats_interval_s * 1e9) {
      log_stats_line();
      last_stats_log_ns_ = now_ns();
    }

    if (options_.idle_exit_s > 0.0 && ever_connected_ && conns_.empty() &&
        aligner_.pending_epochs() == 0 &&
        static_cast<double>(now_ns() - last_activity_ns_) >=
            options_.idle_exit_s * 1e9) {
      for (auto& [name, publisher] : publishers_) {
        if (!publisher->finish()) {
          HHH_WARN << "collector: upstream " << name << " did not ack the bye";
        }
      }
      settle_absorb();
      write_checkpoint();
      write_out_stream();
      HHH_INFO << "collector: fleet drained; idle exit";
      return RunOutcome::kIdleExit;
    }
  }
}

void CollectorService::accept_pending(const Fd& listener) {
  for (;;) {
    const int raw = ::accept(listener.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        HHH_WARN << "collector: accept: " << std::strerror(errno);
      }
      return;
    }
    set_nonblocking(raw, true);
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(raw);
    conn->desc = "conn#" + std::to_string(raw);
    conns_.push_back(std::move(conn));
    ever_connected_ = true;
    last_activity_ns_ = now_ns();
    ctr_.connections_accepted->inc();
  }
}

void CollectorService::service_conn(Conn& conn) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ReadResult r = read_some(conn.fd.get(), buf, sizeof(buf));
    if (r.status == ReadStatus::kWouldBlock) return;
    if (r.status == ReadStatus::kError) {
      HHH_WARN << "collector: " << conn.desc << ": read: " << std::strerror(r.err);
      conn.pending = ConnAction::kCloseDirty;
      return;
    }
    try {
      if (r.status == ReadStatus::kEof) {
        conn.reader.finish();  // a partial tail is now a typed error
      } else {
        conn.reader.feed(std::span<const std::uint8_t>(buf, r.n));
        last_activity_ns_ = now_ns();
      }
      const ConnAction action = process_frames(conn);
      if (action != ConnAction::kKeep) {
        conn.pending = action;
        return;
      }
    } catch (const wire::WireFormatError& e) {
      HHH_WARN << "collector: " << conn.desc << ": protocol error ["
               << wire::to_string(e.code()) << "]: " << e.what();
      ctr_.protocol_errors->inc();
      conn.pending = ConnAction::kCloseError;
      return;
    }
    if (r.status == ReadStatus::kEof) {
      // Orderly shutdown without a bye: the peer died mid-stream. Keep
      // everything that epoch-aligned; log the cut.
      HHH_WARN << "collector: " << conn.desc << " disconnected without a bye after "
               << conn.frames << " frame(s)";
      conn.pending = ConnAction::kCloseDirty;
      return;
    }
    // Backpressure check between chunks: stop reading the firehose
    // vantage before its buffered epochs grow past the cap.
    if (conn.got_hello &&
        aligner_.pending_frames(conn.name) > options_.max_pending_frames) {
      conn.paused = true;
      ctr_.backpressure_pauses->inc();
      return;
    }
  }
}

CollectorService::ConnAction CollectorService::process_frames(Conn& conn) {
  while (const auto frame = conn.reader.next()) {
    if (!conn.got_hello) {
      const ConnAction action = handle_hello(conn, *frame);
      if (action != ConnAction::kKeep) return action;
      continue;
    }
    if (frame->kind == wire::SnapshotKind::kStreamBye) {
      const Bye bye = parse_bye(*frame);
      if (bye.frames_sent != conn.frames) {
        HHH_DEBUG << "collector: " << conn.desc << ": bye declares " << bye.frames_sent
                  << " frame(s), connection delivered " << conn.frames
                  << " (duplicates from a replay are expected)";
      }
      const auto ack = build_bye(Bye{.frames_sent = conn.frames});
      write_all(conn.fd.get(), ack.data(), ack.size());
      HHH_INFO << "collector: " << conn.desc << " finished cleanly (" << conn.frames
               << " frame(s))";
      return ConnAction::kCloseClean;
    }
    handle_epoch_frame(conn, *frame);
  }
  return ConnAction::kKeep;
}

CollectorService::ConnAction CollectorService::handle_hello(
    Conn& conn, const wire::FrameView& frame) {
  const Hello hello = parse_hello(frame);  // throws on anything but a hello
  if (hello.window_ns != options_.window_ns) {
    throw wire::WireFormatError(
        wire::WireError::kParamsMismatch,
        "vantage '" + hello.vantage + "' uses a " +
            std::to_string(hello.window_ns) + "ns window, collector runs " +
            std::to_string(options_.window_ns) + "ns epochs");
  }
  // A reconnect under the same name supersedes the old connection (its
  // socket may not have EOF'd yet): hand the identity over.
  for (const auto& other : conns_) {
    if (other.get() != &conn && other->got_hello && other->name == hello.vantage) {
      HHH_INFO << "collector: " << hello.vantage
               << " reconnected; superseding the old connection";
      other->pending = ConnAction::kCloseStale;
      other->got_hello = false;
      other->name.clear();
      ctr_.connected_vantages->add(-1);  // its close no longer decrements
    }
  }
  conn.name = hello.vantage;
  conn.desc = hello.vantage;
  conn.got_hello = true;
  ctr_.connected_vantages->add(1);
  aligner_.vantage_up(conn.name);
  HHH_INFO << "collector: vantage " << conn.name << " connected";
  return ConnAction::kKeep;
}

void CollectorService::handle_epoch_frame(Conn& conn, const wire::FrameView& frame) {
  if (frame.kind != wire::SnapshotKind::kEpochFrame) {
    throw wire::WireFormatError(wire::WireError::kBadValue,
                                std::string("unexpected ") + wire::to_string(frame.kind) +
                                    " frame mid-stream");
  }
  const EpochFrame epoch = parse_epoch(frame);
  const Offer offer = aligner_.offer(conn.name, epoch.start_ns, epoch.end_ns, epoch.seq,
                                     epoch.inner, now_ns());
  switch (offer) {
    case Offer::kAccepted: {
      ++conn.frames;
      ctr_.frames_received->inc();
      note_vantage_frame(conn.name, aligner_.index_of(epoch.start_ns));
      return;
    }
    case Offer::kDuplicate: {
      ctr_.duplicates_dropped->inc();
      return;
    }
    case Offer::kMisaligned: {
      HHH_WARN << "collector: " << conn.desc << ": window start " << epoch.start_ns
               << "ns is off the epoch grid beyond skew tolerance; frame dropped";
      ctr_.protocol_errors->inc();
      return;
    }
    case Offer::kLate: {
      const std::int64_t index = aligner_.index_of(epoch.start_ns);
      if (incorporated(conn.name, index)) {
        ctr_.duplicates_dropped->inc();
        return;
      }
      // The epoch already closed and shipped; this straggler still
      // counts in the cumulative network-wide state.
      ++conn.frames;
      mark_incorporated(conn.name, index);
      settle_absorb();
      try {
        cumulative_.fold(decode_scope(epoch.inner_frame, conn.name));
        HHH_INFO << "collector: late frame from " << conn.name << " for epoch " << index
                 << " folded into the cumulative state";
        ctr_.late_folds->inc();
        note_vantage_frame(conn.name, index);
      } catch (const std::invalid_argument& e) {
        HHH_WARN << "collector: late frame from " << conn.name
                 << " is incompatible: " << e.what();
        ctr_.protocol_errors->inc();
      } catch (const wire::WireFormatError& e) {
        // Like close_epoch: a bad inner frame costs this frame, not the
        // connection (the envelope itself parsed fine).
        HHH_WARN << "collector: late frame from " << conn.name << " is malformed ["
                 << wire::to_string(e.code()) << "]: " << e.what();
        ctr_.protocol_errors->inc();
      }
      return;
    }
  }
}

void CollectorService::close_conn(std::size_t i, ConnAction how) {
  Conn& conn = *conns_[i];
  if (conn.got_hello) {
    aligner_.vantage_down(conn.name);
    ctr_.connected_vantages->add(-1);
  }
  if (how == ConnAction::kCloseClean) ctr_.clean_disconnects->inc();
  if (how == ConnAction::kCloseDirty) ctr_.dirty_disconnects->inc();
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
}

void CollectorService::close_epoch(ReadyEpoch&& epoch) {
  MergeLedger ledger(options_.thresholds);
  for (const EpochContribution& c : epoch.frames) {
    if (incorporated(c.vantage, epoch.index)) {
      ctr_.duplicates_dropped->inc();
      continue;
    }
    mark_incorporated(c.vantage, epoch.index);
    try {
      // Verified on arrival (parse_epoch) or on restore (the aligner's
      // load_state): no second CRC pass.
      ledger.fold(decode_scope(wire::view_verified_frame(c.inner), c.vantage));
    } catch (const std::invalid_argument& e) {
      // Incompatible vantage parameters: degrade to the frames that do
      // merge — one bad vantage must not sink the epoch.
      HHH_WARN << "collector: epoch " << epoch.index << ": frame from " << c.vantage
               << " is incompatible: " << e.what();
      ctr_.protocol_errors->inc();
    } catch (const wire::WireFormatError& e) {
      HHH_WARN << "collector: epoch " << epoch.index << ": frame from " << c.vantage
               << " is malformed [" << wire::to_string(e.code()) << "]: " << e.what();
      ctr_.protocol_errors->inc();
    }
  }

  LedgerReport report = ledger.report();
  // Merged frames feed only the upstream publisher; serializing them
  // without one is wasted work (checkpoint and --out save their own).
  std::vector<std::vector<std::uint8_t>> group_frames;
  if (options_.publish) group_frames = ledger.save_group_frames();

  // Hand the epoch's ledger to the cumulative one after the previous
  // absorb, so epochs absorb in close order. A close that writes the
  // checkpoint or --out reads the cumulative ledger below: its absorb is
  // deferred to that read, on this thread. Otherwise it runs on its own
  // thread while this one publishes, calls back and folds the next epoch.
  settle_absorb();
  const bool read_here = !options_.checkpoint_path.empty() || !options_.out_path.empty();
  absorbing_ = std::async(
      read_here ? std::launch::deferred : std::launch::async,
      [this, index = epoch.index, ledger = std::move(ledger)]() mutable {
        const std::int64_t begin = now_ns();
        std::vector<std::string> refused = cumulative_.absorb(std::move(ledger));
        ctr_.absorb_ns->observe(static_cast<std::uint64_t>(now_ns() - begin));
        for (std::string& why : refused) why = "epoch " + std::to_string(index) + ": " + why;
        return refused;
      });

  ctr_.epochs_closed->inc();
  if (epoch.grace_expired && !epoch.missing.empty()) ctr_.epochs_incomplete->inc();
  if (epoch.first_seen_ns > 0) {
    ctr_.epoch_close_latency_ns->observe(
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, now_ns() - epoch.first_seen_ns)));
  }
  std::string missing;
  for (const std::string& name : epoch.missing) missing += " " + name;
  HHH_INFO << "collector: epoch " << epoch.index << " closed with "
           << epoch.frames.size() << " contribution(s)"
           << (epoch.missing.empty() ? std::string()
                                     : "; missing:" + missing + " (grace expired)");

  // Durability before visibility: the checkpoint that can reproduce this
  // epoch's fold lands on disk before the epoch is re-published.
  write_checkpoint();
  write_out_stream();
  publish_epoch(epoch, group_frames, report);
  last_activity_ns_ = now_ns();
  if (on_epoch_) on_epoch_(epoch, report);
}

void CollectorService::settle_absorb() {
  if (!absorbing_.valid()) return;
  const bool in_background =
      absorbing_.wait_for(std::chrono::seconds(0)) != std::future_status::deferred;
  const std::int64_t begin = now_ns();
  const std::vector<std::string> refused = absorbing_.get();
  if (in_background) {
    ctr_.absorb_wait_ns->observe(static_cast<std::uint64_t>(now_ns() - begin));
  }
  for (const std::string& why : refused) {
    // Within an epoch, fold() refuses such a frame; across epochs the
    // same name can carry other parameters. The epoch's own report and
    // publish stand; only the all-time ledger leaves the group out.
    HHH_WARN << "collector: cumulative ledger refused " << why;
    ctr_.protocol_errors->inc();
  }
}

LedgerReport CollectorService::cumulative_report() {
  settle_absorb();
  return cumulative_.report();
}

const MergeLedger& CollectorService::cumulative_ledger() {
  settle_absorb();
  return cumulative_;
}

void CollectorService::update_backpressure() {
  for (const auto& conn : conns_) {
    if (!conn->paused) continue;
    if (aligner_.pending_frames(conn->name) <= options_.max_pending_frames / 2) {
      conn->paused = false;
    }
  }
}

bool CollectorService::incorporated(const std::string& vantage,
                                    std::int64_t index) const {
  const auto it = incorporated_.find(vantage);
  return it != incorporated_.end() && it->second.contains(index);
}

void CollectorService::mark_incorporated(const std::string& vantage,
                                         std::int64_t index) {
  incorporated_[vantage].insert(index);
}

void CollectorService::publish_epoch(
    const ReadyEpoch& epoch, const std::vector<std::vector<std::uint8_t>>& group_frames,
    const LedgerReport& report) {
  if (!options_.publish) return;
  for (std::size_t i = 0; i < group_frames.size(); ++i) {
    // One upstream identity per compatibility group, so a mixed-family
    // epoch becomes one (vantage, epoch) contribution per group and the
    // parent's dedup still holds. Frames and report groups share the
    // ledger's group order.
    const std::string name = options_.publish_name + "/" + report.groups[i].key;
    auto it = publishers_.find(name);
    if (it == publishers_.end()) {
      it = publishers_
               .emplace(name, std::make_unique<VantageClient>(VantageClientOptions{
                                  .endpoint = *options_.publish,
                                  .name = name,
                                  .window_ns = options_.window_ns,
                                  .retry_for_s = options_.publish_retry_s}))
               .first;
    }
    try {
      it->second->send_epoch(epoch.start_ns, epoch.end_ns, group_frames[i]);
    } catch (const std::exception& e) {
      HHH_WARN << "collector: publish to " << options_.publish->to_string()
               << " failed: " << e.what();
    }
  }
}

// --------------------------------------------------------------- checkpoint

void CollectorService::write_checkpoint() {
  if (options_.checkpoint_path.empty()) return;
  settle_absorb();
  const auto frame =
      wire::build_frame(wire::SnapshotKind::kCollectorCheckpoint, [&](wire::Writer& w) {
        w.u16(kCheckpointVersion);
        w.i64(options_.window_ns);
        w.i64(options_.grace_ns);
        w.u64(options_.expected_vantages);
        w.f64(options_.thresholds.phi);
        w.f64(options_.thresholds.threshold_bytes);
        cumulative_.save_state(w);
        w.u64(incorporated_.size());
        for (const auto& [name, epochs] : incorporated_) {
          w.str(name);
          epochs.save(w);
        }
        aligner_.save_state(w);
        w.u64(ctr_.frames_received->value());
        w.u64(ctr_.epochs_closed->value());
        w.u64(ctr_.epochs_incomplete->value());
        w.u64(ctr_.late_folds->value());
        w.u64(ctr_.duplicates_dropped->value());
      });
  wire::write_file(options_.checkpoint_path, frame);
}

void CollectorService::load_checkpoint() {
  const auto bytes = wire::read_file(options_.checkpoint_path);
  const wire::FrameView frame = wire::parse_frame(bytes);
  wire::check(frame.frame_size == bytes.size(), wire::WireError::kTrailingBytes,
              "checkpoint file continues past its frame");
  wire::check(frame.kind == wire::SnapshotKind::kCollectorCheckpoint,
              wire::WireError::kBadValue, "not a collector checkpoint frame");
  wire::Reader r(frame.payload, frame.version);
  const std::uint16_t version = r.u16();
  wire::check(version == kCheckpointVersion, wire::WireError::kBadVersion,
              "unknown checkpoint layout version");
  const std::int64_t window_ns = r.i64();
  const std::int64_t grace_ns = r.i64();
  const std::uint64_t expected = r.u64();
  const double phi = r.f64();
  const double threshold_bytes = r.f64();
  if (window_ns != options_.window_ns || grace_ns != options_.grace_ns ||
      expected != options_.expected_vantages || phi != options_.thresholds.phi ||
      threshold_bytes != options_.thresholds.threshold_bytes) {
    throw wire::WireFormatError(
        wire::WireError::kParamsMismatch,
        "checkpoint " + options_.checkpoint_path +
            " was written under different collector parameters; refusing to "
            "merge incompatible state");
  }
  cumulative_.load_state(r);
  const std::uint64_t n_vantages = r.count(1);
  for (std::uint64_t i = 0; i < n_vantages; ++i) {
    const std::string name = r.str();
    incorporated_[name].load(r);
  }
  aligner_.load_state(r, now_ns());
  // Counters restore by re-crediting the saved totals (load happens once,
  // before run(), onto zero-valued counters — monotonicity holds).
  ctr_.frames_received->inc(r.u64());
  ctr_.epochs_closed->inc(r.u64());
  ctr_.epochs_incomplete->inc(r.u64());
  ctr_.late_folds->inc(r.u64());
  ctr_.duplicates_dropped->inc(r.u64());
  wire::check(r.done(), wire::WireError::kTrailingBytes,
              "payload continues past checkpoint state");
  restored_ = true;
  HHH_INFO << "collector: restored checkpoint " << options_.checkpoint_path << " ("
           << cumulative_.scopes_folded() << " scope(s) folded, "
           << aligner_.pending_epochs() << " epoch(s) pending)";
}

void CollectorService::write_out_stream() {
  if (options_.out_path.empty()) return;
  settle_absorb();
  std::vector<std::uint8_t> bytes;
  for (const auto& frame : cumulative_.save_group_frames()) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  if (!bytes.empty()) wire::write_file(options_.out_path, bytes);
}

}  // namespace hhh::service
