// MergeLedger — the shared epoch-merge behind hhh-collector and
// hhh-collectord. This suite pins the semantics both depend on: absolute
// thresholds converting to per-scope phis, local extraction BEFORE the
// merge (the paper's hidden-HHH reveal), compatibility grouping, ledger
// composition via absorb(), and the checkpoint save/restore round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "core/memento_hhh.hpp"
#include "harness/trace_builder.hpp"
#include "net/hierarchy.hpp"
#include "service/merge.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh::service {
namespace {

PrefixKey prefix(const std::string& text) {
  const auto p = PrefixKey::parse(text);
  EXPECT_TRUE(p.has_value()) << text;
  return *p;
}

void feed(HhhEngine& engine, Ipv4Address src, std::uint32_t bytes_each,
          std::size_t packets) {
  for (std::size_t i = 0; i < packets; ++i) {
    engine.add(harness::packet_at(0.001 * static_cast<double>(i), src, bytes_each));
  }
}

std::unique_ptr<HhhEngine> v4_engine() {
  return make_exact_engine(Hierarchy::byte_granularity());
}

Scope engine_scope(std::unique_ptr<HhhEngine> engine, std::string label) {
  return Scope{.label = std::move(label), .summary = std::move(engine)};
}

// A CRC-valid frame of a retired kind: 6 (the removed WCSS detector) or 8
// (the removed disjoint-window detector's checkpoint).
std::vector<std::uint8_t> retired_kind_frame(int kind = 6) {
  return wire::build_frame(static_cast<wire::SnapshotKind>(kind),
                           std::vector<std::uint8_t>{1, 2, 3, 4});
}

template <typename F>
void expect_wire_error(wire::WireError code, F&& decode) {
  try {
    decode();
    FAIL() << "expected WireFormatError";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

// A Memento vantage as the collector sees it: serialized to a frame and
// decoded back through decode_scope().
Scope memento_scope(const MementoHhhDetector& detector, std::string label) {
  const auto bytes = wire::save_engine(detector);
  return decode_scope(wire::parse_frame(bytes), std::move(label));
}

// A Memento vantage seeing 600 x 100 B from 10.0.0.1 (0.6 T at T = 100 kB)
// next to 2000 x 100 B from its own genuine heavy hitter `local_heavy`.
std::unique_ptr<MementoHhhDetector> memento_vantage(Ipv4Address local_heavy,
                                                    std::uint64_t seed) {
  auto det = std::make_unique<MementoHhhDetector>(
      MementoHhhParams{.window = Duration::seconds(10), .seed = seed});
  for (std::size_t i = 0; i < 2000; ++i) {
    const double t = 0.0004 * static_cast<double>(i);
    det->add(harness::packet_at(t, local_heavy, 100));
    if (i % 10 < 3) det->add(harness::packet_at(t, Ipv4Address::of(10, 0, 0, 1), 100));
  }
  return det;
}

std::vector<std::uint8_t> saved_state(const MergeLedger& ledger) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  ledger.save_state(w);
  return bytes;
}

bool set_contains(const HhhSet& set, const PrefixKey& p) { return set.contains(p); }

void expect_same_set(const HhhSet& got, const HhhSet& want) {
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.threshold_bytes, want.threshold_bytes);
  EXPECT_EQ(got.items(), want.items());
}

bool hidden_contains(const LedgerReport& report, const PrefixKey& p) {
  for (const auto& h : report.hidden) {
    if (h == p) return true;
  }
  return false;
}

// ------------------------------------------------------------- thresholds

TEST(Thresholds, RelativeModeUsesPhiAsIs) {
  const Thresholds t{.phi = 0.07, .threshold_bytes = 0.0};
  EXPECT_DOUBLE_EQ(t.scope_phi(1000.0), 0.07);
  EXPECT_DOUBLE_EQ(t.scope_phi(0.0), 0.07);
}

TEST(Thresholds, AbsoluteModeConvertsToAPerScopePhi) {
  const Thresholds t{.phi = 0.05, .threshold_bytes = 500.0};
  EXPECT_DOUBLE_EQ(t.scope_phi(2000.0), 0.25);   // T / total
  EXPECT_DOUBLE_EQ(t.scope_phi(400.0), 1.0);     // T above total clamps
  EXPECT_DOUBLE_EQ(t.scope_phi(0.0), 1.0);       // empty scope: nothing heavy
}

// ------------------------------------------------------------------- fold

TEST(MergeLedger, FoldExtractsTheScopeLocallyBeforeMerging) {
  // One heavy source (800 of 1000 bytes) must appear in fold()'s returned
  // local set; a light one (200) must not, at phi = 0.5.
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 8);
  feed(*engine, Ipv4Address::of(20, 0, 0, 1), 100, 2);

  MergeLedger ledger(Thresholds{.phi = 0.5});
  const HhhSet local = ledger.fold(engine_scope(std::move(engine), "v0"));
  EXPECT_EQ(local.total_bytes, 1000u);
  EXPECT_TRUE(set_contains(local, prefix("10.0.0.1/32")));
  EXPECT_FALSE(set_contains(local, prefix("20.0.0.1/32")));
  EXPECT_EQ(ledger.scopes_folded(), 1u);
  EXPECT_FALSE(ledger.empty());
}

TEST(MergeLedger, MergedGroupMatchesAnEngineThatSawBothStreams) {
  auto a = v4_engine();
  auto b = v4_engine();
  auto both = v4_engine();
  feed(*a, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  feed(*b, Ipv4Address::of(10, 0, 0, 2), 100, 7);
  feed(*both, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  feed(*both, Ipv4Address::of(10, 0, 0, 2), 100, 7);

  MergeLedger ledger(Thresholds{.phi = 0.1});
  ledger.fold(engine_scope(std::move(a), "a"));
  ledger.fold(engine_scope(std::move(b), "b"));
  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].key, "exact");
  expect_same_set(report.groups[0].merged, both->extract(0.1));
}

TEST(MergeLedger, HiddenHhhIsHeavyGloballyButLightAtEveryVantage) {
  // The paper's reveal, in absolute-threshold mode with T = 1000 B:
  // 10.0.0.1 sends 600 B through each of two vantages — under T at both,
  // 1200 B >= T merged. Each vantage also has its own genuine local heavy
  // hitter so the local extractions are nonempty.
  auto v1 = v4_engine();
  feed(*v1, Ipv4Address::of(10, 0, 0, 1), 100, 6);
  feed(*v1, Ipv4Address::of(20, 0, 0, 1), 100, 20);
  auto v2 = v4_engine();
  feed(*v2, Ipv4Address::of(10, 0, 0, 1), 100, 6);
  feed(*v2, Ipv4Address::of(30, 0, 0, 1), 100, 20);

  MergeLedger ledger(Thresholds{.threshold_bytes = 1000.0});
  const HhhSet local1 = ledger.fold(engine_scope(std::move(v1), "v1"));
  const HhhSet local2 = ledger.fold(engine_scope(std::move(v2), "v2"));
  EXPECT_FALSE(set_contains(local1, prefix("10.0.0.1/32")));
  EXPECT_FALSE(set_contains(local2, prefix("10.0.0.1/32")));
  EXPECT_TRUE(set_contains(local1, prefix("20.0.0.1/32")));
  EXPECT_TRUE(set_contains(local2, prefix("30.0.0.1/32")));

  LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_TRUE(set_contains(report.groups[0].merged, prefix("10.0.0.1/32")));
  EXPECT_TRUE(hidden_contains(report, prefix("10.0.0.1/32")));
  // The locally reported heavies are merged but not hidden.
  EXPECT_FALSE(hidden_contains(report, prefix("20.0.0.1/32")));
  EXPECT_FALSE(hidden_contains(report, prefix("30.0.0.1/32")));
}

TEST(MergeLedger, MixedFamiliesFormSeparateGroups) {
  auto v4 = v4_engine();
  feed(*v4, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  auto v6 = make_exact_engine(Hierarchy::v6_byte_granularity());
  PacketRecord p;
  p.ts = TimePoint();
  p.ip_len = 100;
  p.set_src(IpAddress::v6(0x2001'0db8'0000'0000ULL, 1));
  for (int i = 0; i < 10; ++i) v6->add(p);

  MergeLedger ledger;
  ledger.fold(engine_scope(std::move(v4), "v4"));
  ledger.fold(engine_scope(std::move(v6), "v6"));
  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.groups[0].key, "exact");      // first-folded order
  EXPECT_EQ(report.groups[1].key, "exact_v6");
  EXPECT_EQ(report.scopes_folded, 2u);
}

TEST(MergeLedger, IncompatibleHierarchiesInOneGroupThrow) {
  auto byte = v4_engine();
  feed(*byte, Ipv4Address::of(10, 0, 0, 1), 100, 1);
  auto bit = make_exact_engine(Hierarchy::bit_granularity());
  feed(*bit, Ipv4Address::of(10, 0, 0, 1), 100, 1);

  MergeLedger ledger;
  ledger.fold(engine_scope(std::move(byte), "byte"));
  EXPECT_THROW(ledger.fold(engine_scope(std::move(bit), "bit")),
               std::invalid_argument);
}

// ---------------------------------------------------------- decode_scope

TEST(DecodeScope, RoundTripsAnEngineFrame) {
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  const auto bytes = wire::save_engine(*engine);
  const auto frame = wire::parse_frame(bytes);

  Scope scope = decode_scope(frame, "vantage0");
  EXPECT_EQ(scope.summary->name(), "exact");
  EXPECT_NE(dynamic_cast<const HhhEngine*>(scope.summary.get()), nullptr);
  EXPECT_EQ(scope.summary->watermark(), TimePoint());
  EXPECT_EQ(scope.label, "vantage0");
  EXPECT_EQ(scope.summary->total(TimePoint()), static_cast<double>(engine->total_bytes()));
  expect_same_set(scope.summary->report(TimePoint(), 0.1), engine->extract(0.1));
  EXPECT_EQ(wire::save_engine(*scope.summary), bytes);
}

TEST(DecodeScope, RoundTripsAMementoFrame) {
  const auto detector = memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1);
  Scope scope = memento_scope(*detector, "m");
  EXPECT_EQ(scope.summary->name(), "memento");
  EXPECT_EQ(dynamic_cast<const HhhEngine*>(scope.summary.get()), nullptr);
  const TimePoint at = scope.summary->watermark();
  EXPECT_EQ(at, detector->watermark());
  EXPECT_EQ(scope.summary->total(at), 260000.0);
  expect_same_set(scope.summary->report(at, 0.1), detector->report(at, 0.1));
}

TEST(DecodeScope, RefusesStreamProtocolFrames) {
  const auto bye = wire::build_frame(wire::SnapshotKind::kStreamBye,
                                     std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0, 0, 0});
  const auto frame = wire::parse_frame(bye);
  expect_wire_error(wire::WireError::kUnsupportedEngine, [&] { decode_scope(frame, "x"); });
}

TEST(DecodeScope, RefusesTheRetiredKinds) {
  for (const int kind : {6, 8}) {
    SCOPED_TRACE(kind);
    const auto bytes = retired_kind_frame(kind);
    const auto frame = wire::parse_frame(bytes);  // still a well-formed frame
    EXPECT_EQ(static_cast<int>(frame.kind), kind);
    expect_wire_error(wire::WireError::kUnsupportedEngine, [&] { decode_scope(frame, "x"); });
  }
}

TEST(DecodeScope, MergeAcrossFamiliesThrows) {
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  Scope exact = engine_scope(std::move(engine), "e");
  Scope memento = memento_scope(*memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1), "m");
  EXPECT_THROW(exact.summary->merge_from(*memento.summary), std::invalid_argument);
  EXPECT_THROW(memento.summary->merge_from(*exact.summary), std::invalid_argument);
}

// ----------------------------------------------------------- composition

TEST(MergeLedger, AbsorbMatchesDirectFoldingAndKeepsTheReveal) {
  const auto make_v1 = [] {
    auto e = v4_engine();
    feed(*e, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*e, Ipv4Address::of(20, 0, 0, 1), 100, 20);
    return e;
  };
  const auto make_v2 = [] {
    auto e = v4_engine();
    feed(*e, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*e, Ipv4Address::of(30, 0, 0, 1), 100, 20);
    return e;
  };
  const Thresholds t{.threshold_bytes = 1000.0};

  MergeLedger direct(t);
  direct.fold(engine_scope(make_v1(), "v1"));
  direct.fold(engine_scope(make_v2(), "v2"));

  // The daemon's shape: each epoch folds into its own ledger, and the
  // cumulative ledger absorbs them. The absorbed merged sets must not
  // enter the locally-seen union, or the reveal would vanish.
  MergeLedger epoch1(t);
  epoch1.fold(engine_scope(make_v1(), "v1"));
  MergeLedger epoch2(t);
  epoch2.fold(engine_scope(make_v2(), "v2"));
  MergeLedger cumulative(t);
  cumulative.absorb(std::move(epoch1));
  cumulative.absorb(std::move(epoch2));

  LedgerReport direct_report = direct.report();
  LedgerReport absorbed_report = cumulative.report();
  ASSERT_EQ(absorbed_report.groups.size(), 1u);
  expect_same_set(absorbed_report.groups[0].merged, direct_report.groups[0].merged);
  EXPECT_EQ(absorbed_report.hidden, direct_report.hidden);
  EXPECT_TRUE(hidden_contains(absorbed_report, prefix("10.0.0.1/32")));
  EXPECT_EQ(absorbed_report.scopes_folded, 2u);
}

TEST(MergeLedger, AbsorbRefusesAnIncompatibleGroupAndLeavesItsGroupUnchanged) {
  const auto epoch_of = [](std::unique_ptr<HhhEngine> engine, std::string label) {
    MergeLedger epoch;
    epoch.fold(engine_scope(std::move(engine), std::move(label)));
    return epoch;
  };
  auto byte = v4_engine();
  feed(*byte, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  MergeLedger cumulative;
  EXPECT_TRUE(cumulative.absorb(epoch_of(std::move(byte), "byte")).empty());
  const auto exact_before = cumulative.save_group_frames();

  // A later epoch: the same group key ("exact") over another hierarchy,
  // next to a v6 group that does merge.
  auto bit = make_exact_engine(Hierarchy::bit_granularity());
  feed(*bit, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  MergeLedger later = epoch_of(std::move(bit), "bit");
  auto v6 = make_exact_engine(Hierarchy::v6_byte_granularity());
  PacketRecord p;
  p.ip_len = 100;
  p.set_src(IpAddress::v6(0x2001'0db8'0000'0000ULL, 1));
  v6->add(p);
  later.fold(engine_scope(std::move(v6), "v6"));

  const std::vector<std::string> refused = cumulative.absorb(std::move(later));
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_NE(refused[0].find("'exact'"), std::string::npos) << refused[0];
  EXPECT_NE(refused[0].find("hierarchy mismatch"), std::string::npos) << refused[0];

  const auto after = cumulative.save_group_frames();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0], exact_before[0]);  // the refused group's head, byte-identical
  const LedgerReport report = cumulative.report();
  EXPECT_EQ(report.groups[0].merged.total_bytes, 1000u);
  EXPECT_EQ(report.groups[1].key, "exact_v6");
  EXPECT_EQ(report.scopes_folded, 3u);  // documented: the count carries over whole
}

TEST(MergeLedger, SaveLoadRoundTripsGroupsAndTheLocallySeenUnion) {
  MergeLedger ledger(Thresholds{.threshold_bytes = 1000.0});
  {
    auto v1 = v4_engine();
    feed(*v1, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*v1, Ipv4Address::of(20, 0, 0, 1), 100, 20);
    ledger.fold(engine_scope(std::move(v1), "v1"));
    auto v2 = v4_engine();
    feed(*v2, Ipv4Address::of(10, 0, 0, 1), 100, 6);
    feed(*v2, Ipv4Address::of(30, 0, 0, 1), 100, 20);
    ledger.fold(engine_scope(std::move(v2), "v2"));
  }
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  ledger.save_state(w);

  MergeLedger restored(Thresholds{.threshold_bytes = 1000.0});
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.scopes_folded(), 2u);

  LedgerReport before = ledger.report();
  LedgerReport after = restored.report();
  ASSERT_EQ(after.groups.size(), before.groups.size());
  expect_same_set(after.groups[0].merged, before.groups[0].merged);
  EXPECT_EQ(after.hidden, before.hidden);  // the seen-locally union survived
  EXPECT_TRUE(hidden_contains(after, prefix("10.0.0.1/32")));
}

// An exact group writes its leaf block in ascending key order, so a
// restored ledger (whose group is a decoded run, not the original hash
// table) saves the same bytes.
TEST(MergeLedger, ExactGroupSaveLoadSaveIsByteIdentical) {
  MergeLedger ledger(Thresholds{.phi = 0.02});
  for (std::uint64_t v = 0; v < 3; ++v) {
    auto vantage = v4_engine();
    vantage->add_batch(harness::TraceBuilder(40 + v).compact_space().packets(20000));
    ledger.fold(engine_scope(std::move(vantage), "v" + std::to_string(v)));
  }
  MergeLedger epoch(Thresholds{.phi = 0.02});
  auto late = v4_engine();
  late->add_batch(harness::TraceBuilder(50).compact_space().packets(20000));
  epoch.fold(engine_scope(std::move(late), "late"));
  ledger.absorb(std::move(epoch));
  const auto bytes = saved_state(ledger);

  MergeLedger restored(Thresholds{.phi = 0.02});
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(saved_state(restored), bytes);
  const LedgerReport before = ledger.report();
  const LedgerReport after = restored.report();
  ASSERT_EQ(after.groups.size(), 1u);
  expect_same_set(after.groups[0].merged, before.groups[0].merged);
  EXPECT_EQ(after.hidden, before.hidden);
}

TEST(MergeLedger, SavedGroupFramesAreTheCollectorsInputFormat) {
  MergeLedger ledger;
  auto a = v4_engine();
  feed(*a, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  auto b = v4_engine();
  feed(*b, Ipv4Address::of(10, 0, 0, 2), 100, 7);
  ledger.fold(engine_scope(std::move(a), "a"));
  ledger.fold(engine_scope(std::move(b), "b"));

  const auto frames = ledger.save_group_frames();
  ASSERT_EQ(frames.size(), 1u);
  // Each frame is self-delimiting and decodes back into a merged scope.
  const auto view = wire::parse_frame(frames[0]);
  Scope merged = decode_scope(view, "merged");
  EXPECT_EQ(merged.summary->name(), "exact");
  EXPECT_EQ(merged.summary->total(TimePoint()), 1200.0);
}

TEST(MergeLedger, LoadStateRefusesARetiredKind6GroupFrame) {
  // A checkpoint laid out as save_state() writes it, whose one group
  // frame is of the retired kind 6.
  const auto frame = retired_kind_frame();
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  w.u64(1);
  w.str("wcss");
  wire::write_timepoint(w, TimePoint());
  w.u64(frame.size());
  w.raw(frame.data(), frame.size());
  w.u64(0);  // locally-seen union
  w.u64(1);  // scopes folded

  MergeLedger ledger;
  wire::Reader r(bytes);
  expect_wire_error(wire::WireError::kUnsupportedEngine, [&] { ledger.load_state(r); });
}

TEST(MergeLedger, LoadStateRefusesAGroupKeyThatDisagreesWithItsFrame) {
  MergeLedger ledger;
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 5);
  ledger.fold(engine_scope(std::move(engine), "a"));
  auto bytes = saved_state(ledger);
  // The group key "exact" follows the u64 group count and its u32 length.
  ASSERT_EQ(bytes[12], 'e');
  bytes[12] = 'E';

  MergeLedger restored;
  wire::Reader r(bytes);
  expect_wire_error(wire::WireError::kBadValue, [&] { restored.load_state(r); });
}

// ---------------------------------------------------------------- Memento

TEST(MergeLedgerMemento, SplitSourceIsRevealedAsHidden) {
  // 10.0.0.1 sends ~0.6 T through each of two Memento vantages: under T
  // at both, ~1.2 T once merged.
  MergeLedger ledger(Thresholds{.threshold_bytes = 100000.0});
  const HhhSet local1 =
      ledger.fold(memento_scope(*memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1), "m1"));
  const HhhSet local2 =
      ledger.fold(memento_scope(*memento_vantage(Ipv4Address::of(30, 0, 0, 1), 2), "m2"));
  EXPECT_FALSE(set_contains(local1, prefix("10.0.0.1/32")));
  EXPECT_FALSE(set_contains(local2, prefix("10.0.0.1/32")));
  EXPECT_TRUE(set_contains(local1, prefix("20.0.0.1/32")));
  EXPECT_TRUE(set_contains(local2, prefix("30.0.0.1/32")));

  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].key, "memento");
  EXPECT_EQ(report.groups[0].merged.total_bytes, 2u * 260000u);  // exact window totals
  EXPECT_TRUE(set_contains(report.groups[0].merged, prefix("10.0.0.1/32")));
  EXPECT_TRUE(hidden_contains(report, prefix("10.0.0.1/32")));
  EXPECT_FALSE(hidden_contains(report, prefix("20.0.0.1/32")));
  EXPECT_FALSE(hidden_contains(report, prefix("30.0.0.1/32")));
}

TEST(MergeLedgerMemento, AbsorbMatchesDirectFolding) {
  const Thresholds t{.threshold_bytes = 100000.0};
  const auto v1 = memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1);
  const auto v2 = memento_vantage(Ipv4Address::of(30, 0, 0, 1), 2);

  MergeLedger direct(t);
  direct.fold(memento_scope(*v1, "m1"));
  direct.fold(memento_scope(*v2, "m2"));
  MergeLedger epoch1(t);
  epoch1.fold(memento_scope(*v1, "m1"));
  MergeLedger epoch2(t);
  epoch2.fold(memento_scope(*v2, "m2"));
  MergeLedger cumulative(t);
  cumulative.absorb(std::move(epoch1));
  cumulative.absorb(std::move(epoch2));

  const LedgerReport want = direct.report();
  const LedgerReport got = cumulative.report();
  ASSERT_EQ(got.groups.size(), 1u);
  EXPECT_EQ(got.groups[0].key, want.groups[0].key);
  expect_same_set(got.groups[0].merged, want.groups[0].merged);
  EXPECT_EQ(got.hidden, want.hidden);
  EXPECT_TRUE(hidden_contains(got, prefix("10.0.0.1/32")));
  EXPECT_EQ(got.scopes_folded, 2u);
  EXPECT_EQ(cumulative.save_group_frames(), direct.save_group_frames());
}

TEST(MergeLedgerMemento, SaveLoadSaveIsByteIdentical) {
  MergeLedger ledger(Thresholds{.threshold_bytes = 100000.0});
  ledger.fold(memento_scope(*memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1), "m1"));
  ledger.fold(memento_scope(*memento_vantage(Ipv4Address::of(30, 0, 0, 1), 2), "m2"));
  const auto bytes = saved_state(ledger);

  MergeLedger restored(Thresholds{.threshold_bytes = 100000.0});
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(saved_state(restored), bytes);

  const LedgerReport before = ledger.report();
  const LedgerReport after = restored.report();
  ASSERT_EQ(after.groups.size(), 1u);
  expect_same_set(after.groups[0].merged, before.groups[0].merged);
  EXPECT_EQ(after.hidden, before.hidden);
}

TEST(MergeLedgerMemento, EngineAndMementoScopesFormTwoGroups) {
  auto engine = v4_engine();
  feed(*engine, Ipv4Address::of(10, 0, 0, 1), 100, 10);
  MergeLedger ledger;
  ledger.fold(engine_scope(std::move(engine), "e"));
  ledger.fold(memento_scope(*memento_vantage(Ipv4Address::of(20, 0, 0, 1), 1), "m"));
  const LedgerReport report = ledger.report();
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.groups[0].key, "exact");
  EXPECT_EQ(report.groups[1].key, "memento");
  EXPECT_EQ(ledger.save_group_frames().size(), 2u);
}

}  // namespace
}  // namespace hhh::service
