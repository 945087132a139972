// The Memento sliding-window HHH detector's contract: sharp window
// expiry at frame granularity, query-at-any-instant accuracy bracketed
// against the exact sliding detector, merge semantics, snapshot
// round-trips, and bounded state.
#include "core/memento_hhh.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sliding_window.hpp"
#include "harness/golden.hpp"
#include "trace/synthetic_trace.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

Ipv4Address ip(const char* s) { return *Ipv4Address::parse(s); }
PrefixKey pfx(const char* s) { return *PrefixKey::parse(s); }

PacketRecord pkt(double t, Ipv4Address src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t);
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

PacketRecord pkt6(double t, const char* src, std::uint32_t bytes) {
  PacketRecord p;
  p.ts = TimePoint::from_seconds(t);
  p.set_src(*IpAddress::parse(src));
  p.ip_len = bytes;
  return p;
}

TimePoint at(double t) { return TimePoint::from_seconds(t); }

bool contains(const HhhSet& set, const PrefixKey& p) {
  const auto prefixes = set.prefixes();
  return std::binary_search(prefixes.begin(), prefixes.end(), p);
}

TEST(MementoHhh, SteadyHeavySourceDetected) {
  MementoHhhDetector det({.window = Duration::seconds(10)});
  for (int i = 0; i < 4000; ++i) {
    det.add(pkt(i * 0.005, ip("10.1.2.3"), 700));
    det.add(pkt(i * 0.005, ip(i % 2 ? "50.0.0.1" : "60.0.0.1"), 300));
  }
  const auto result = det.report(at(20.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("10.1.2.3/32")));
}

TEST(MementoHhh, SharpWindowExpiryAtFrameStep) {
  // W = 5 s in 5 frames of 1 s. Heavy traffic only in [0, 2): its last
  // frame (frame 1) stays inside the window through now < 7.0 and is
  // fully expired one frame step later — queries bracket the boundary.
  MementoHhhDetector det({.window = Duration::seconds(5), .frames = 5});
  for (int i = 0; i < 400; ++i) det.add(pkt(i * 0.005, ip("66.6.6.6"), 1000));
  for (int i = 0; i < 440; ++i) det.add(pkt(2.0 + i * 0.01, ip("50.0.0.1"), 200));

  const auto before = det.report(at(6.5), 0.3);
  EXPECT_TRUE(contains(before, pfx("66.6.6.6/32")));

  for (int i = 0; i < 100; ++i) det.add(pkt(6.5 + i * 0.01, ip("50.0.0.1"), 200));
  const auto after = det.report(at(7.5), 0.3);
  EXPECT_FALSE(contains(after, pfx("66.6.6.6/32")));
  EXPECT_TRUE(contains(after, pfx("50.0.0.1/32")));
}

TEST(MementoHhh, HierarchicalAggregation) {
  MementoHhhDetector det({.window = Duration::seconds(10)});
  // Four siblings, each ~12%: the /24 qualifies at 30%, the hosts do not.
  for (int i = 0; i < 3000; ++i) {
    const double t = i * 0.005;
    det.add(pkt(t, ip("10.1.2.1"), 120));
    det.add(pkt(t, ip("10.1.2.2"), 120));
    det.add(pkt(t, ip("10.1.2.3"), 120));
    det.add(pkt(t, ip("10.1.2.4"), 120));
    det.add(pkt(t, ip("99.0.0.1"), 520));
  }
  const auto result = det.report(at(15.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("10.1.2.0/24")));
  EXPECT_FALSE(contains(result, pfx("10.1.2.1/32")));
}

/// Recall of a Memento detector's report at t = 40 s against the exact
/// sliding summary's over the same W/s steps [30 s, 40 s).
template <typename Detector, typename Exact>
double recall_at_40s(const Hierarchy& hierarchy, double v6_fraction) {
  TraceConfig cfg;
  cfg.seed = 77;
  cfg.duration = Duration::seconds(40);
  cfg.background_pps = 2000.0;
  cfg.v6_fraction = v6_fraction;
  cfg.address_space.num_slash8 = 8;
  cfg.address_space.slash16_per_8 = 6;
  cfg.address_space.slash24_per_16 = 4;
  cfg.address_space.hosts_per_24 = 4;
  const auto packets = SyntheticTraceGenerator(cfg).generate_all();

  Detector det({.hierarchy = hierarchy,
                .window = Duration::seconds(10),
                .frames = 10,
                .counters_per_level = 1024});
  Exact exact({.window = Duration::seconds(10),
               .step = Duration::seconds(1),
               .hierarchy = hierarchy});
  for (const auto& p : packets) det.add(p);
  exact.add_batch(packets);
  const auto truth = exact.report(at(40.0), 0.05).prefixes();
  const auto approx_prefixes = det.report(at(40.0), 0.05).prefixes();
  std::size_t recalled = 0;
  for (const auto& p : truth) {
    if (std::binary_search(approx_prefixes.begin(), approx_prefixes.end(), p)) ++recalled;
  }
  EXPECT_FALSE(truth.empty());
  return truth.empty() ? 0.0 : static_cast<double>(recalled) / truth.size();
}

TEST(MementoHhh, RecallAgainstExactSlidingWindow) {
  EXPECT_GE((recall_at_40s<MementoHhhDetector, ExactSlidingSummary>(
                Hierarchy::byte_granularity(), 0.0)),
            0.7);
}

TEST(MementoHhh, V6RecallAgainstExactSlidingWindow) {
  EXPECT_GE((recall_at_40s<MementoHhhV6Detector, ExactSlidingSummaryV6>(
                Hierarchy::v6_byte_granularity(), 1.0)),
            0.7);
}

TEST(MementoHhh, WindowTotalIsExactRegardlessOfSampling) {
  // Window totals come from the exact per-frame byte ring, not the
  // sampled level summaries: within the window they equal the true sum.
  MementoHhhDetector det({.window = Duration::seconds(10), .frames = 10});
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    det.add(pkt(5.0 + i * 0.0005, ip("10.0.0.1"), 100 + i % 7));
    sum += 100 + i % 7;
  }
  EXPECT_DOUBLE_EQ(det.total(at(7.5)), sum);
}

TEST(MementoHhh, PerPacketAndBatchFeedsAgreeOnTotalsAndDetection) {
  // add() is a batch of one, which drops the spare half of its level
  // draw, so the summaries are not byte-identical to one batch — but
  // window totals are exact on both feeds and both detect the same heavy
  // source.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 4000; ++i) {
    packets.push_back(pkt(i * 0.0025, ip("10.1.2.3"), 700));
    packets.push_back(pkt(i * 0.0025, ip(i % 2 ? "50.0.0.1" : "60.0.0.1"), 300));
  }
  MementoHhhDetector one({}), batched({});
  for (const auto& p : packets) one.add(p);
  batched.add_batch(packets);
  EXPECT_DOUBLE_EQ(one.total(at(10.0)), batched.total(at(10.0)));
  EXPECT_TRUE(contains(one.report(at(10.0), 0.3), pfx("10.1.2.3/32")));
  EXPECT_TRUE(contains(batched.report(at(10.0), 0.3), pfx("10.1.2.3/32")));
}

TEST(MementoHhh, MergeCombinesVantages) {
  const MementoHhhParams params{.window = Duration::seconds(10)};
  MementoHhhDetector a(params), b(params);
  for (int i = 0; i < 3000; ++i) {
    const double t = i * 0.003;
    a.add(pkt(t, ip("10.1.2.3"), 600));
    a.add(pkt(t, ip("50.0.0.1"), 400));
    b.add(pkt(t, ip("99.9.9.9"), 600));
    b.add(pkt(t, ip("60.0.0.1"), 400));
  }
  const double total_a = a.total(at(9.0));
  const double total_b = b.total(at(9.0));
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.total(at(9.0)), total_a + total_b);
  const auto merged = a.report(a.watermark(), 0.2);
  EXPECT_TRUE(contains(merged, pfx("10.1.2.3/32")));
  EXPECT_TRUE(contains(merged, pfx("99.9.9.9/32")));
}

TEST(MementoHhh, MergeRejectsMismatchedGeometry) {
  MementoHhhDetector base({.window = Duration::seconds(10)});
  MementoHhhDetector other_window({.window = Duration::seconds(5)});
  EXPECT_THROW(base.merge_from(other_window), std::invalid_argument);
  MementoHhhV6Detector v6({.hierarchy = Hierarchy::v6_byte_granularity()});
  EXPECT_THROW(base.merge_from(v6), std::invalid_argument);
}

TEST(MementoHhh, SnapshotRoundTripPreservesQueries) {
  MementoHhhDetector det({.window = Duration::seconds(10), .frames = 8});
  for (int i = 0; i < 5000; ++i) {
    det.add(pkt(i * 0.002, ip(i % 3 ? "10.1.2.3" : "50.0.0.1"), 400 + i % 11));
  }
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  det.save_state(w);

  wire::Reader r(payload);
  auto restored = deserialize_memento_detector(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored->name(), "memento");
  EXPECT_EQ(restored->watermark(), det.watermark());
  const TimePoint now = det.watermark();
  EXPECT_DOUBLE_EQ(restored->total(now), det.total(now));
  EXPECT_TRUE(harness::hhh_sets_equal(det.report(now, 0.1), restored->report(now, 0.1)));

  // load_state restores into an identically-configured detector...
  MementoHhhDetector twin({.window = Duration::seconds(10), .frames = 8});
  wire::Reader r2(payload);
  twin.load_state(r2);
  EXPECT_TRUE(harness::hhh_sets_equal(det.report(now, 0.1), twin.report(now, 0.1)));

  // ...and refuses a mismatched one.
  MementoHhhDetector wrong({.window = Duration::seconds(10), .frames = 4});
  wire::Reader r3(payload);
  EXPECT_THROW(wrong.load_state(r3), wire::WireFormatError);
}

TEST(MementoHhh, V6DetectorFindsHeavyPrefix) {
  MementoHhhV6Detector det({.hierarchy = Hierarchy::v6_byte_granularity(),
                            .window = Duration::seconds(10)});
  for (int i = 0; i < 4000; ++i) {
    const double t = i * 0.0025;
    det.add(pkt6(t, "2001:db8::1", 700));
    det.add(pkt6(t, i % 2 ? "fd00::1" : "fd00::2", 300));
  }
  EXPECT_EQ(det.name(), "memento_v6");
  const auto result = det.report(at(10.0), 0.3);
  EXPECT_TRUE(contains(result, pfx("2001:db8::1/128")));
  // v4 packets are ignored by the v6 detector.
  const double before = det.total(at(10.0));
  det.add(pkt(10.0, ip("10.0.0.1"), 100));
  EXPECT_DOUBLE_EQ(det.total(at(10.0)), before);
}

TEST(MementoHhh, BoundedMemoryUnderDistinctFlood) {
  MementoHhhDetector det(
      {.window = Duration::seconds(10), .frames = 8, .counters_per_level = 128});
  const std::size_t idle = det.memory_bytes();
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    det.add(pkt(i * 0.001, Ipv4Address(static_cast<std::uint32_t>(rng.next())), 100));
  }
  EXPECT_LT(det.memory_bytes(), 4u << 20);
  // Traffic-independent: the flood added no slots beyond the fixed arena.
  EXPECT_EQ(det.memory_bytes(), idle);
}

}  // namespace
}  // namespace hhh
