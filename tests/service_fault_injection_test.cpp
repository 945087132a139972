// Fault-injection matrix for the collector service: every way a vantage
// can misbehave on the wire — killed mid-window, truncated at an
// arbitrary byte offset, duplicated, reordered, stalled past grace,
// plain garbage — must surface as a typed per-connection error or a
// counted disconnect, never a crash, never a hang, and never a penalty
// for the healthy vantages sharing the daemon.
//
// The service under test is in-process (CollectorService on a background
// thread) over real Unix-domain/TCP sockets, so the matrix exercises the
// actual poll loop, the incremental frame reader and the socket close
// paths, while epoch timing stays fast: windows live in trace time, and
// the only real-time waits are grace periods set to ~100 ms.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "harness/trace_builder.hpp"
#include "net/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "pipeline/snapshot_stream.hpp"
#include "service/collectord.hpp"
#include "service/endpoint.hpp"
#include "service/frame_stream.hpp"
#include "service/merge.hpp"
#include "service/socket.hpp"
#include "service/vantage_client.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::service {
namespace {

constexpr std::int64_t kWindow = 1'000'000'000;  // 1 s of *trace* time

// ------------------------------------------------------------- utilities

/// A fresh Unix-domain socket path in /tmp (bind paths are capped at
/// ~108 chars, so the build directory is not a safe home), removed on
/// scope exit.
class UdsPath {
 public:
  UdsPath() {
    static int counter = 0;
    path_ = "/tmp/hhh_fi_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++) + ".sock";
    endpoint_ = *Endpoint::parse("unix:" + path_);
  }
  ~UdsPath() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  std::string path_;
  Endpoint endpoint_;
};

bool wait_until(const std::function<bool()>& pred, double timeout_s = 15.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// CollectorService on a background thread, with every epoch close
/// recorded (callback runs in the loop thread; reads synchronize here).
class ServiceRunner {
 public:
  explicit ServiceRunner(CollectorOptions options) : svc_(std::move(options)) {
    svc_.set_epoch_callback([this](const ReadyEpoch& epoch, const LedgerReport& report) {
      std::lock_guard<std::mutex> lock(mu_);
      epochs_.emplace_back(epoch, report);
    });
    svc_.start();
    thread_ = std::thread([this] { outcome_ = svc_.run(); });
  }
  ~ServiceRunner() { stop(); }

  CollectorService& service() { return svc_; }
  CollectorStats stats() const { return svc_.stats(); }

  void stop() {
    if (thread_.joinable()) {
      svc_.stop();
      thread_.join();
    }
  }
  RunOutcome outcome() const { return outcome_; }

  std::size_t epochs_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epochs_.size();
  }
  std::pair<ReadyEpoch, LedgerReport> epoch(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return epochs_.at(i);
  }
  bool wait_epochs(std::size_t n, double timeout_s = 15.0) {
    return wait_until([&] { return epochs_recorded() >= n; }, timeout_s);
  }

 private:
  CollectorService svc_;
  std::thread thread_;
  RunOutcome outcome_ = RunOutcome::kStopped;
  mutable std::mutex mu_;
  std::vector<std::pair<ReadyEpoch, LedgerReport>> epochs_;
};

CollectorOptions base_options(const Endpoint& ep) {
  CollectorOptions opt;
  opt.listen = {ep};
  opt.window_ns = kWindow;
  opt.thresholds.threshold_bytes = 1000.0;
  return opt;
}

PrefixKey prefix(const std::string& text) {
  const auto p = PrefixKey::parse(text);
  EXPECT_TRUE(p.has_value()) << text;
  return *p;
}

/// One vantage's window snapshot: an exact engine over `hierarchy` that
/// saw `packets` packets of 100 B from each listed source.
std::vector<std::uint8_t> inner_frame(
    const std::vector<std::pair<Ipv4Address, int>>& flows,
    const Hierarchy& hierarchy = Hierarchy::byte_granularity()) {
  auto engine = make_exact_engine(hierarchy);
  for (const auto& [src, packets] : flows) {
    for (int i = 0; i < packets; ++i) {
      engine->add(harness::packet_at(0.001 * i, src, 100));
    }
  }
  return wire::save_engine(*engine);
}

/// The two halves of the paper's reveal: 10.0.0.1 sends 600 B through
/// each vantage (under T = 1000 everywhere locally), plus one genuine
/// local heavy hitter per vantage.
std::vector<std::uint8_t> vantage_a_inner() {
  return inner_frame({{Ipv4Address::of(10, 0, 0, 1), 6}, {Ipv4Address::of(20, 0, 0, 1), 20}});
}
std::vector<std::uint8_t> vantage_b_inner() {
  return inner_frame({{Ipv4Address::of(10, 0, 0, 1), 6}, {Ipv4Address::of(30, 0, 0, 1), 20}});
}

std::vector<std::uint8_t> hello_bytes(const std::string& name,
                                      std::int64_t window_ns = kWindow) {
  return build_hello(Hello{.vantage = name, .window_ns = window_ns});
}

std::vector<std::uint8_t> epoch_bytes(std::int64_t index,
                                      std::span<const std::uint8_t> inner,
                                      std::uint64_t seq = 0) {
  return build_epoch(index * kWindow, (index + 1) * kWindow, seq, inner);
}

void send_raw(const Fd& fd, std::span<const std::uint8_t> bytes) {
  ASSERT_TRUE(write_all(fd.get(), bytes.data(), bytes.size()));
}

/// Read frames off a (blocking) socket until one of kind `expect`
/// arrives; false on EOF or timeout. This is how raw test clients await
/// the collector's bye ack.
bool read_frame_of_kind(int fd, wire::SnapshotKind expect, double timeout_s = 10.0) {
  pipeline::SnapshotFrameReader reader;
  std::uint8_t buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  for (;;) {
    while (const auto frame = reader.next()) {
      if (frame->kind == expect) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    struct pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ReadResult r = read_some(fd, buf, sizeof(buf));
    if (r.status == ReadStatus::kData) {
      reader.feed(std::span<const std::uint8_t>(buf, r.n));
    } else if (r.status == ReadStatus::kEof || r.status == ReadStatus::kError) {
      return false;
    }
  }
}

bool hidden_contains(const LedgerReport& report, const PrefixKey& p) {
  for (const auto& h : report.hidden) {
    if (h == p) return true;
  }
  return false;
}

VantageClientOptions client_options(const Endpoint& ep, const std::string& name) {
  return VantageClientOptions{
      .endpoint = ep, .name = name, .window_ns = kWindow, .retry_for_s = 10.0};
}

// ----------------------------------------------------------- happy path

TEST(CollectorService, TwoVantagesMergeAndRevealTheHiddenHhh) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 2;
  ServiceRunner runner(std::move(opt));

  VantageClient a(client_options(uds.endpoint(), "vantage-a"));
  VantageClient b(client_options(uds.endpoint(), "vantage-b"));
  a.send_epoch(0, kWindow, vantage_a_inner());
  b.send_epoch(0, kWindow, vantage_b_inner());
  ASSERT_TRUE(runner.wait_epochs(1));
  EXPECT_TRUE(a.finish());
  EXPECT_TRUE(b.finish());

  const auto [epoch, report] = runner.epoch(0);
  EXPECT_EQ(epoch.index, 0);
  EXPECT_TRUE(epoch.missing.empty());
  EXPECT_FALSE(epoch.grace_expired);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].merged.total_bytes, 5200u);
  EXPECT_TRUE(hidden_contains(report, prefix("10.0.0.1/32")));

  ASSERT_TRUE(wait_until([&] { return runner.stats().clean_disconnects == 2; }));
  const CollectorStats stats = runner.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.epochs_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.dirty_disconnects, 0u);
}

TEST(CollectorService, TcpTransportBehavesLikeUnixDomain) {
  auto opt = base_options(*Endpoint::parse("tcp:127.0.0.1:0"));
  opt.expected_vantages = 1;
  ServiceRunner runner(std::move(opt));
  ASSERT_NE(runner.service().tcp_port(), 0);

  const Endpoint ep = *Endpoint::parse("tcp:127.0.0.1:" +
                                       std::to_string(runner.service().tcp_port()));
  VantageClient client(client_options(ep, "tcp-vantage"));
  client.send_epoch(0, kWindow, vantage_a_inner());
  ASSERT_TRUE(runner.wait_epochs(1));
  EXPECT_TRUE(client.finish());
  ASSERT_TRUE(wait_until([&] { return runner.stats().clean_disconnects == 1; }));
  EXPECT_EQ(runner.stats().epochs_closed, 1u);
}

// -------------------------------------------------------- vantage faults

TEST(CollectorService, VantageKilledMidWindowDoesNotBlockHealthyPeers) {
  UdsPath uds;
  ServiceRunner runner(base_options(uds.endpoint()));  // adaptive completeness

  // The victim connects, says hello, ships half an epoch frame, dies.
  {
    Fd victim = connect_to(uds.endpoint());
    send_raw(victim, hello_bytes("victim"));
    const auto frame = epoch_bytes(0, vantage_a_inner());
    send_raw(victim, std::span(frame).subspan(0, frame.size() / 2));
    ASSERT_TRUE(wait_until([&] { return runner.stats().connections_accepted == 1; }));
  }  // abrupt close

  // The cut must surface as a typed truncation error, not a crash.
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));

  // A healthy vantage connecting afterwards completes an epoch normally:
  // the victim is down, so adaptive completeness is the healthy fleet.
  VantageClient healthy(client_options(uds.endpoint(), "healthy"));
  healthy.send_epoch(0, kWindow, vantage_b_inner());
  ASSERT_TRUE(runner.wait_epochs(1));
  EXPECT_TRUE(healthy.finish());
  const auto [epoch, report] = runner.epoch(0);
  ASSERT_EQ(epoch.frames.size(), 1u);
  EXPECT_EQ(epoch.frames[0].vantage, "healthy");
  EXPECT_EQ(runner.stats().epochs_closed, 1u);
}

TEST(CollectorService, AbruptCloseAfterHelloCountsAsDirtyDisconnect) {
  UdsPath uds;
  ServiceRunner runner(base_options(uds.endpoint()));
  {
    Fd conn = connect_to(uds.endpoint());
    send_raw(conn, hello_bytes("crasher"));
    ASSERT_TRUE(wait_until([&] { return runner.stats().connections_accepted == 1; }));
  }
  ASSERT_TRUE(wait_until([&] { return runner.stats().dirty_disconnects == 1; }));
  EXPECT_EQ(runner.stats().protocol_errors, 0u);
}

TEST(CollectorService, TruncationAtEveryByteOffsetIsTypedNeverFatal) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 2;  // nothing closes during the matrix
  ServiceRunner runner(std::move(opt));

  const auto hello = hello_bytes("t");
  // A small inner engine keeps the matrix dense but complete: every
  // prefix of hello+epoch that a connection can die holding.
  const auto epoch = epoch_bytes(0, inner_frame({{Ipv4Address::of(10, 0, 0, 1), 2}}));
  std::vector<std::uint8_t> stream(hello);
  stream.insert(stream.end(), epoch.begin(), epoch.end());
  ASSERT_LT(stream.size(), 2000u) << "matrix would be slow; shrink the inner frame";

  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    {
      Fd conn = connect_to(uds.endpoint());
      send_raw(conn, std::span(stream).subspan(0, cut));
    }  // abrupt close at `cut`
    // Every cut is accounted exactly once: a frame-boundary cut is a
    // dirty disconnect, a mid-frame cut a typed protocol error.
    ASSERT_TRUE(wait_until([&] {
      const CollectorStats s = runner.stats();
      return s.protocol_errors + s.dirty_disconnects == cut + 1;
    })) << "lost accounting at cut offset " << cut;
  }
  const CollectorStats after = runner.stats();
  EXPECT_EQ(after.connections_accepted, stream.size());
  EXPECT_EQ(after.epochs_closed, 0u);
  EXPECT_EQ(after.frames_received, 0u);

  // The daemon is still fully alive: a real pair of vantages completes.
  VantageClient a(client_options(uds.endpoint(), "vantage-a"));
  VantageClient b(client_options(uds.endpoint(), "vantage-b"));
  a.send_epoch(0, kWindow, vantage_a_inner());
  b.send_epoch(0, kWindow, vantage_b_inner());
  ASSERT_TRUE(runner.wait_epochs(1));
  EXPECT_TRUE(a.finish());
  EXPECT_TRUE(b.finish());
}

TEST(CollectorService, GarbageBytesAreATypedProtocolError) {
  UdsPath uds;
  ServiceRunner runner(base_options(uds.endpoint()));
  Fd conn = connect_to(uds.endpoint());
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  send_raw(conn, std::span(reinterpret_cast<const std::uint8_t*>(garbage.data()),
                           garbage.size()));
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));
  // The collector closed us, not the reverse.
  EXPECT_FALSE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye, 2.0));
  EXPECT_EQ(runner.stats().dirty_disconnects, 0u);
}

TEST(CollectorService, WindowMismatchHelloIsRefused) {
  UdsPath uds;
  ServiceRunner runner(base_options(uds.endpoint()));
  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, hello_bytes("skewed", 2 * kWindow));
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));
  EXPECT_FALSE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye, 2.0));
}

TEST(CollectorService, EpochFrameBeforeHelloIsRefused) {
  UdsPath uds;
  ServiceRunner runner(base_options(uds.endpoint()));
  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, epoch_bytes(0, vantage_a_inner()));
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));
  EXPECT_EQ(runner.stats().frames_received, 0u);
}

TEST(CollectorService, OffGridWindowStartDropsTheFrameOnly) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;
  ServiceRunner runner(std::move(opt));
  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, hello_bytes("drift"));
  // Half a window off the grid: beyond the default tolerance (window/4).
  send_raw(conn, build_epoch(kWindow / 2, kWindow / 2 + kWindow, 0, vantage_a_inner()));
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));

  // The connection survives a misaligned frame: a grid-aligned frame and
  // a bye complete normally on the same socket.
  send_raw(conn, epoch_bytes(0, vantage_a_inner(), /*seq=*/1));
  ASSERT_TRUE(runner.wait_epochs(1));
  send_raw(conn, build_bye(Bye{.frames_sent = 1}));
  EXPECT_TRUE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye));
}

// ------------------------------------------------- duplication, ordering

TEST(CollectorService, DuplicateEpochFramesAreDroppedNotDoubleCounted) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;
  ServiceRunner runner(std::move(opt));

  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, hello_bytes("dup"));
  send_raw(conn, epoch_bytes(0, vantage_a_inner()));
  ASSERT_TRUE(runner.wait_epochs(1));

  // The journal-replay shape: the identical frame arrives again after
  // the epoch closed. It classifies late, is already incorporated, and
  // is dropped.
  send_raw(conn, epoch_bytes(0, vantage_a_inner()));
  ASSERT_TRUE(wait_until([&] { return runner.stats().duplicates_dropped == 1; }));
  send_raw(conn, build_bye(Bye{.frames_sent = 2}));
  ASSERT_TRUE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye));

  runner.stop();
  const LedgerReport report = runner.service().cumulative_report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].merged.total_bytes, 2600u);  // counted once
  EXPECT_EQ(runner.stats().epochs_closed, 1u);
}

TEST(CollectorService, OutOfOrderEpochsAllCloseWithCorrectTotals) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;
  ServiceRunner runner(std::move(opt));

  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, hello_bytes("ooo"));
  std::uint64_t seq = 0;
  for (const std::int64_t index : {2, 0, 1}) {
    send_raw(conn, epoch_bytes(index, vantage_a_inner(), seq++));
  }
  ASSERT_TRUE(runner.wait_epochs(3));
  // drain() returns ready epochs ascending, but arrival order decided
  // which buckets existed; all three closed exactly once.
  std::set<std::int64_t> indices;
  for (std::size_t i = 0; i < 3; ++i) indices.insert(runner.epoch(i).first.index);
  EXPECT_EQ(indices, (std::set<std::int64_t>{0, 1, 2}));

  send_raw(conn, build_bye(Bye{.frames_sent = 3}));
  ASSERT_TRUE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye));
  runner.stop();
  const LedgerReport report = runner.service().cumulative_report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].merged.total_bytes, 3u * 2600u);
  EXPECT_EQ(runner.stats().duplicates_dropped, 0u);
}

// --------------------------------------------------- stragglers & grace

TEST(CollectorService, StalledVantagePastGraceClosesIncompleteThenFoldsLate) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.grace_ns = 100'000'000;  // 100 ms of real arrival time
  ServiceRunner runner(std::move(opt));

  Fd stalled = connect_to(uds.endpoint());
  send_raw(stalled, hello_bytes("stalled"));
  VantageClient prompt(client_options(uds.endpoint(), "prompt"));
  prompt.send_epoch(0, kWindow, vantage_a_inner());

  // Grace expires with the stalled vantage connected but silent: the
  // epoch closes incomplete and names it.
  ASSERT_TRUE(runner.wait_epochs(1));
  const auto [epoch, report] = runner.epoch(0);
  EXPECT_TRUE(epoch.grace_expired);
  ASSERT_EQ(epoch.missing.size(), 1u);
  EXPECT_EQ(epoch.missing[0], "stalled");
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].merged.total_bytes, 2600u);
  EXPECT_EQ(runner.stats().epochs_incomplete, 1u);

  // The straggler wakes up: its frame classifies late and still lands in
  // the cumulative state.
  send_raw(stalled, epoch_bytes(0, vantage_b_inner()));
  ASSERT_TRUE(wait_until([&] { return runner.stats().late_folds == 1; }));
  send_raw(stalled, build_bye(Bye{.frames_sent = 1}));
  ASSERT_TRUE(read_frame_of_kind(stalled.get(), wire::SnapshotKind::kStreamBye));
  EXPECT_TRUE(prompt.finish());

  runner.stop();
  const LedgerReport final_report = runner.service().cumulative_report();
  ASSERT_EQ(final_report.groups.size(), 1u);
  EXPECT_EQ(final_report.groups[0].merged.total_bytes, 5200u);
  EXPECT_TRUE(hidden_contains(final_report, prefix("10.0.0.1/32")));
}

TEST(CollectorService, MalformedLateFrameCountsAnErrorAndKeepsTheConnection) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.grace_ns = 100'000'000;
  ServiceRunner runner(std::move(opt));

  Fd stalled = connect_to(uds.endpoint());
  send_raw(stalled, hello_bytes("stalled"));
  VantageClient prompt(client_options(uds.endpoint(), "prompt"));
  prompt.send_epoch(0, kWindow, vantage_a_inner());
  ASSERT_TRUE(runner.wait_epochs(1));

  // The envelope and the inner frame's CRC are valid, so the frame gets
  // past the stream reader and parse_epoch; only the engine decode of the
  // late fold rejects the payload.
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03};
  const auto inner = wire::build_frame(wire::SnapshotKind::kExactEngine, garbage);
  send_raw(stalled, epoch_bytes(0, inner));
  ASSERT_TRUE(wait_until([&] { return runner.stats().protocol_errors == 1; }));
  EXPECT_EQ(runner.stats().late_folds, 0u);

  // Same socket: the bye is still acknowledged.
  send_raw(stalled, build_bye(Bye{.frames_sent = 1}));
  EXPECT_TRUE(read_frame_of_kind(stalled.get(), wire::SnapshotKind::kStreamBye));
  EXPECT_TRUE(prompt.finish());
  ASSERT_TRUE(wait_until([&] { return runner.stats().clean_disconnects == 2; }));
  EXPECT_EQ(runner.stats().protocol_errors, 1u);
  EXPECT_EQ(runner.stats().dirty_disconnects, 0u);
}

/// One metric series' histogram from the service's scrape snapshot.
obs::Histogram::Snapshot histogram_of(const CollectorService& svc, const std::string& name) {
  for (const obs::MetricSample& sample : svc.metrics_snapshot().samples) {
    if (sample.name == name) return sample.histogram;
  }
  ADD_FAILURE() << "no series " << name;
  return {};
}

void expect_same_report(const LedgerReport& got, const LedgerReport& want) {
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (std::size_t g = 0; g < got.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].key, want.groups[g].key);
    EXPECT_EQ(got.groups[g].merged.total_bytes, want.groups[g].merged.total_bytes);
    EXPECT_EQ(got.groups[g].merged.items(), want.groups[g].merged.items());
  }
  EXPECT_EQ(got.hidden, want.hidden);
  EXPECT_EQ(got.scopes_folded, want.scopes_folded);
}

std::vector<std::uint8_t> saved_state(const MergeLedger& ledger) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  ledger.save_state(w);
  return bytes;
}

TEST(CollectorService, LaterEpochWithAnIncompatibleGroupLeavesTheDaemonRunning) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;
  ServiceRunner runner(std::move(opt));

  // Epoch 0 opens the cumulative "exact" group over the byte hierarchy;
  // epoch 1 is a well-formed "exact" frame over the bit hierarchy.
  Fd conn = connect_to(uds.endpoint());
  send_raw(conn, hello_bytes("v"));
  send_raw(conn, epoch_bytes(0, vantage_a_inner()));
  ASSERT_TRUE(runner.wait_epochs(1));
  const auto bit_inner =
      inner_frame({{Ipv4Address::of(10, 0, 0, 1), 6}}, Hierarchy::bit_granularity());
  send_raw(conn, epoch_bytes(1, bit_inner, /*seq=*/1));
  ASSERT_TRUE(runner.wait_epochs(2));

  // The epoch's own report stands, and the daemon still answers a bye.
  const LedgerReport epoch1 = runner.epoch(1).second;
  ASSERT_EQ(epoch1.groups.size(), 1u);
  EXPECT_EQ(epoch1.groups[0].merged.total_bytes, 600u);
  send_raw(conn, build_bye(Bye{.frames_sent = 2}));
  ASSERT_TRUE(read_frame_of_kind(conn.get(), wire::SnapshotKind::kStreamBye));

  runner.stop();
  const CollectorStats stats = runner.stats();
  EXPECT_EQ(stats.epochs_closed, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  const LedgerReport cumulative = runner.service().cumulative_report();
  // Only the byte group, exactly as epoch 0 left it.
  const GroupReport byte_group = runner.epoch(0).second.groups.at(0);
  ASSERT_EQ(cumulative.groups.size(), 1u);
  EXPECT_EQ(cumulative.groups[0].key, "exact");
  EXPECT_EQ(cumulative.groups[0].merged.total_bytes, byte_group.merged.total_bytes);
  EXPECT_EQ(cumulative.groups[0].merged.items(), byte_group.merged.items());
}

/// Sources 11.<epoch>.x.y, one 100 B packet each, plus the heavy
/// 20.0.0.1: enough keys that an absorb takes a while.
std::vector<std::uint8_t> wide_inner(int epoch) {
  std::vector<std::pair<Ipv4Address, int>> flows = {{Ipv4Address::of(20, 0, 0, 1), 20}};
  for (int i = 0; i < 3000; ++i) {
    flows.emplace_back(Ipv4Address::of(11, static_cast<std::uint8_t>(epoch),
                                       static_cast<std::uint8_t>(i / 256),
                                       static_cast<std::uint8_t>(i % 256)),
                       1);
  }
  return inner_frame(flows);
}

TEST(CollectorService, BackgroundAbsorbMatchesAnOfflineLedger) {
  constexpr int kEpochs = 10;
  constexpr int kLateAfter = 5;  // the late frame lands behind this epoch's absorb
  constexpr std::int64_t kLateEpoch = 3;
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;  // each of v's frames closes its epoch
  std::vector<std::vector<std::uint8_t>> inner;
  for (int e = 0; e < kEpochs; ++e) inner.push_back(wide_inner(e));
  const auto late_inner = vantage_b_inner();

  CollectorService svc(opt);
  Fd w;  // the straggler's socket, written from the callback
  std::mutex mu;
  std::vector<std::optional<LedgerReport>> in_callback(kEpochs);
  int closed = 0;
  bool late_sent = false;
  svc.set_epoch_callback([&](const ReadyEpoch& epoch, const LedgerReport&) {
    std::optional<LedgerReport> cumulative;
    if (epoch.index == kLateAfter) {
      // This epoch's absorb was just started: queue the straggler now,
      // so the loop reads it while that absorb is (most likely) running.
      const auto late = epoch_bytes(kLateEpoch, late_inner);
      late_sent = write_all(w.get(), late.data(), late.size());
    } else {
      cumulative = svc.cumulative_report();
    }
    std::lock_guard<std::mutex> lock(mu);
    in_callback.at(static_cast<std::size_t>(epoch.index)) = std::move(cumulative);
    ++closed;
  });
  svc.start();
  w = connect_to(uds.endpoint());  // before the loop thread reads it
  Fd v = connect_to(uds.endpoint());
  std::thread loop([&] { svc.run(); });
  struct StopOnExit {  // a failed ASSERT must not leave the loop running
    CollectorService& svc;
    std::thread& loop;
    ~StopOnExit() {
      if (loop.joinable()) {
        svc.stop();
        loop.join();
      }
    }
  } stop_on_exit{svc, loop};
  const auto closed_count = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return closed;
  };

  send_raw(w, hello_bytes("w"));
  send_raw(v, hello_bytes("v"));
  for (int e = 0; e < kEpochs; ++e) {
    send_raw(v, epoch_bytes(e, inner[static_cast<std::size_t>(e)],
                            static_cast<std::uint64_t>(e)));
    ASSERT_TRUE(wait_until([&] { return closed_count() == e + 1; })) << "epoch " << e;
    if (e == kLateAfter) {
      ASSERT_TRUE(wait_until([&] { return svc.stats().late_folds == 1; }));
    }
  }
  svc.stop();
  loop.join();
  EXPECT_TRUE(late_sent);
  const CollectorStats stats = svc.stats();
  EXPECT_EQ(stats.epochs_closed, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(stats.late_folds, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(histogram_of(svc, "hhh_collector_absorb_ns").count,
            static_cast<std::uint64_t>(kEpochs));
  // Every absorb ran in the background and was settled on the loop.
  EXPECT_EQ(histogram_of(svc, "hhh_collector_absorb_wait_ns").count,
            static_cast<std::uint64_t>(kEpochs));

  // The same epoch ledgers, absorbed in order, with the straggler folded
  // where the daemon folded it.
  MergeLedger offline(opt.thresholds);
  for (int e = 0; e < kEpochs; ++e) {
    SCOPED_TRACE(e);
    MergeLedger epoch(opt.thresholds);
    epoch.fold(decode_scope(wire::parse_frame(inner[static_cast<std::size_t>(e)]), "v"));
    EXPECT_TRUE(offline.absorb(std::move(epoch)).empty());
    if (e == kLateAfter) {
      EXPECT_FALSE(in_callback[static_cast<std::size_t>(e)].has_value());
      offline.fold(decode_scope(wire::parse_frame(late_inner), "w"));
    } else {
      ASSERT_TRUE(in_callback[static_cast<std::size_t>(e)].has_value());
      expect_same_report(*in_callback[static_cast<std::size_t>(e)], offline.report());
    }
  }
  expect_same_report(svc.cumulative_report(), offline.report());
  EXPECT_EQ(saved_state(svc.cumulative_ledger()), saved_state(offline));
}

// ---------------------------------------------------------- backpressure

TEST(CollectorService, FloodingVantageIsPausedWithoutPenalizingOthers) {
  UdsPath uds;
  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 2;
  opt.grace_ns = 60'000'000'000;  // buckets must not close by grace here
  opt.max_pending_frames = 2;
  ServiceRunner runner(std::move(opt));

  // The flooder ships 6 epochs while its partner is silent: buckets pile
  // up past the cap and the collector stops reading it.
  Fd flood = connect_to(uds.endpoint());
  send_raw(flood, hello_bytes("flood"));
  constexpr int kEpochs = 6;
  for (int i = 0; i < kEpochs; ++i) {
    send_raw(flood, epoch_bytes(i, vantage_a_inner(), static_cast<std::uint64_t>(i)));
  }
  ASSERT_TRUE(wait_until([&] { return runner.stats().backpressure_pauses >= 1; }));

  // The partner arrives and completes every epoch; the daemon was never
  // blocked on the flooder.
  VantageClient partner(client_options(uds.endpoint(), "partner"));
  for (int i = 0; i < kEpochs; ++i) {
    partner.send_epoch(i * kWindow, (i + 1) * kWindow, vantage_b_inner());
  }
  ASSERT_TRUE(runner.wait_epochs(kEpochs));
  EXPECT_TRUE(partner.finish());

  // Draining the buckets resumed the flooder: its bye gets the ack.
  send_raw(flood, build_bye(Bye{.frames_sent = kEpochs}));
  ASSERT_TRUE(read_frame_of_kind(flood.get(), wire::SnapshotKind::kStreamBye));
  const CollectorStats stats = runner.stats();
  EXPECT_EQ(stats.epochs_closed, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(stats.frames_received, static_cast<std::uint64_t>(2 * kEpochs));
  EXPECT_EQ(stats.epochs_incomplete, 0u);
}

// ------------------------------------------------------- crash recovery

TEST(CollectorService, CheckpointRestartConvergesToTheUnrestartedReport) {
  UdsPath uds;
  const std::string checkpoint =
      "/tmp/hhh_fi_ckpt_" + std::to_string(::getpid()) + ".snap";
  std::error_code ec;
  std::filesystem::remove(checkpoint, ec);

  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 2;
  opt.checkpoint_path = checkpoint;

  VantageClient a(client_options(uds.endpoint(), "vantage-a"));
  VantageClient b(client_options(uds.endpoint(), "vantage-b"));
  {
    ServiceRunner first(opt);
    a.send_epoch(0, kWindow, vantage_a_inner());
    b.send_epoch(0, kWindow, vantage_b_inner());
    ASSERT_TRUE(first.wait_epochs(1));  // epoch 0 closed & checkpointed
    // Epoch 1 is half-arrived when the collector dies: a's contribution
    // sits in an open aligner bucket, persisted by the stop checkpoint.
    a.send_epoch(kWindow, 2 * kWindow, vantage_a_inner());
    ASSERT_TRUE(wait_until([&] { return first.stats().frames_received == 3; }));
    first.stop();
    EXPECT_FALSE(first.service().restored_from_checkpoint());
  }

  LedgerReport after_restart;
  CollectorStats restart_stats;
  {
    ServiceRunner second(opt);
    EXPECT_TRUE(second.service().restored_from_checkpoint());
    // The clients' sockets died with the first process; their next
    // operation reconnects and replays the whole journal. The restored
    // (vantage, epoch) sets keep exactly one copy of everything.
    b.send_epoch(kWindow, 2 * kWindow, vantage_b_inner());
    ASSERT_TRUE(second.wait_epochs(1));  // epoch 1: a restored + b live
    EXPECT_TRUE(a.finish());             // replays its full journal; acked
    EXPECT_TRUE(b.finish());
    EXPECT_GE(a.reconnects() + b.reconnects(), 1u);
    const auto [epoch, report] = second.epoch(0);
    EXPECT_EQ(epoch.index, 1);
    EXPECT_TRUE(epoch.missing.empty());
    second.stop();
    after_restart = second.service().cumulative_report();
    restart_stats = second.stats();
  }
  EXPECT_EQ(restart_stats.epochs_closed, 2u);  // persisted + the new close
  EXPECT_GE(restart_stats.duplicates_dropped, 1u);  // replays deduplicated

  // Reference: the same four frames into one uninterrupted collector.
  UdsPath ref_uds;
  auto ref_opt = base_options(ref_uds.endpoint());
  ref_opt.expected_vantages = 2;
  LedgerReport reference;
  {
    ServiceRunner ref(ref_opt);
    VantageClient ra(client_options(ref_uds.endpoint(), "vantage-a"));
    VantageClient rb(client_options(ref_uds.endpoint(), "vantage-b"));
    ra.send_epoch(0, kWindow, vantage_a_inner());
    rb.send_epoch(0, kWindow, vantage_b_inner());
    ra.send_epoch(kWindow, 2 * kWindow, vantage_a_inner());
    rb.send_epoch(kWindow, 2 * kWindow, vantage_b_inner());
    ASSERT_TRUE(ref.wait_epochs(2));
    EXPECT_TRUE(ra.finish());
    EXPECT_TRUE(rb.finish());
    ref.stop();
    reference = ref.service().cumulative_report();
  }

  ASSERT_EQ(after_restart.groups.size(), reference.groups.size());
  EXPECT_EQ(after_restart.groups[0].merged.total_bytes,
            reference.groups[0].merged.total_bytes);
  EXPECT_EQ(after_restart.groups[0].merged.items(), reference.groups[0].merged.items());
  EXPECT_EQ(after_restart.hidden, reference.hidden);
  EXPECT_TRUE(hidden_contains(after_restart, prefix("10.0.0.1/32")));
  std::filesystem::remove(checkpoint, ec);
}

TEST(CollectorService, CheckpointWithDifferentParametersIsRefused) {
  UdsPath uds;
  const std::string checkpoint =
      "/tmp/hhh_fi_ckpt2_" + std::to_string(::getpid()) + ".snap";
  std::error_code ec;
  std::filesystem::remove(checkpoint, ec);

  auto opt = base_options(uds.endpoint());
  opt.expected_vantages = 1;
  opt.checkpoint_path = checkpoint;
  {
    ServiceRunner runner(opt);
    VantageClient v(client_options(uds.endpoint(), "v"));
    v.send_epoch(0, kWindow, vantage_a_inner());
    ASSERT_TRUE(runner.wait_epochs(1));
    EXPECT_TRUE(v.finish());
  }

  auto other = opt;
  other.window_ns = 2 * kWindow;  // incompatible epoch grid
  try {
    CollectorService refused(other);
    refused.start();
    FAIL() << "expected kParamsMismatch";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kParamsMismatch);
  }
  std::filesystem::remove(checkpoint, ec);
}

// -------------------------------------------------- aggregation publish

TEST(CollectorService, PublishComposesAnAggregationTree) {
  UdsPath parent_uds, child_uds;
  auto parent_opt = base_options(parent_uds.endpoint());
  parent_opt.expected_vantages = 1;  // one child collector feeds it
  ServiceRunner parent(std::move(parent_opt));

  auto child_opt = base_options(child_uds.endpoint());
  child_opt.expected_vantages = 2;
  child_opt.publish = parent_uds.endpoint();
  child_opt.idle_exit_s = 0.2;  // drain and leave once the vantages finish
  ServiceRunner child(std::move(child_opt));

  VantageClient a(client_options(child_uds.endpoint(), "vantage-a"));
  VantageClient b(client_options(child_uds.endpoint(), "vantage-b"));
  a.send_epoch(0, kWindow, vantage_a_inner());
  b.send_epoch(0, kWindow, vantage_b_inner());
  ASSERT_TRUE(child.wait_epochs(1));
  EXPECT_TRUE(a.finish());
  EXPECT_TRUE(b.finish());
  ASSERT_TRUE(parent.wait_epochs(1));

  // The parent's merged set is the child's: publish re-emits the child's
  // group heads, and exact-engine merging is lossless.
  const auto child_report = child.epoch(0).second;
  const auto parent_report = parent.epoch(0).second;
  ASSERT_EQ(parent_report.groups.size(), 1u);
  EXPECT_EQ(parent_report.groups[0].merged.total_bytes,
            child_report.groups[0].merged.total_bytes);
  EXPECT_EQ(parent_report.groups[0].merged.items(), child_report.groups[0].merged.items());
  // But the reveal belongs to the child: the parent saw the merged set as
  // one local scope, so nothing is hidden from *its* single vantage.
  EXPECT_TRUE(hidden_contains(child_report, prefix("10.0.0.1/32")));
}

// ------------------------------------------------------------- endpoints

TEST(Endpoint, ParsesTheThreeAddressForms) {
  const auto uds = Endpoint::parse("unix:/run/hhh.sock");
  ASSERT_TRUE(uds.has_value());
  EXPECT_EQ(uds->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(uds->path, "/run/hhh.sock");
  EXPECT_EQ(uds->to_string(), "unix:/run/hhh.sock");

  const auto tcp = Endpoint::parse("tcp:collector.example:9000");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp->host, "collector.example");
  EXPECT_EQ(tcp->port, 9000);

  const auto bare = Endpoint::parse("127.0.0.1:7070");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 7070);

  EXPECT_FALSE(Endpoint::parse("unix:").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:notaport").has_value());
  EXPECT_FALSE(Endpoint::parse("tcp:host:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("nocolon").has_value());
}

}  // namespace
}  // namespace hhh::service
