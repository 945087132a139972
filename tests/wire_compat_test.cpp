// Wire backward compatibility: snapshot files committed under tests/data/
// by older builds must keep loading under the current reader, with
// byte-identical behaviour to an engine that ingested the same stream live.
//
// The fixtures (see tests/data/README.md) all hold
// TraceBuilder(77).compact_space().packets(30000), the v6 ones with
// .v6_fraction(1.0):
//  * version 1 (pre-generic, IPv4-only), written by the pre-refactor
//    build: ExactEngine{byte_granularity} and RhhhEngine{counters=256,
//    seed=913};
//  * version 2 (family-generic, exact engines carrying every hierarchy
//    level), written by the last version-2 build: ExactEngine
//    {byte_granularity} and ExactV6Engine{v6_byte_granularity}.
// The trace generator is seed-stable, so re-deriving the same stream today
// reproduces the engine state the fixtures captured.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/rhhh.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "util/random.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"

namespace hhh {
namespace {

#ifndef HHH_TEST_DATA_DIR
#define HHH_TEST_DATA_DIR "tests/data"
#endif

std::vector<PacketRecord> fixture_workload() {
  return harness::TraceBuilder(77).compact_space().packets(30000);
}

std::vector<std::uint8_t> fixture_bytes(const char* name) {
  return wire::read_file(std::string(HHH_TEST_DATA_DIR) + "/" + name);
}

TEST(WireCompat, FixturesAreVersionOne) {
  for (const char* name : {"v1_exact.snap", "v1_rhhh.snap"}) {
    const auto bytes = fixture_bytes(name);
    const wire::FrameView frame = wire::parse_frame(bytes);
    EXPECT_EQ(frame.version, 1) << name;
  }
}

TEST(WireCompat, V1ExactSnapshotLoadsAndMatchesLiveIngest) {
  const auto restored = harness::as_engine(wire::load_engine(fixture_bytes("v1_exact.snap")));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), "exact");

  ExactEngine live(Hierarchy::byte_granularity());
  for (const auto& p : fixture_workload()) live.add(p);

  EXPECT_EQ(restored->total_bytes(), live.total_bytes());
  for (const double phi : {0.01, 0.03, 0.2}) {
    EXPECT_TRUE(harness::hhh_sets_equal(live.extract(phi), restored->extract(phi)))
        << "phi=" << phi;
  }
  // A fixed golden value from the pre-refactor run, so the check cannot
  // silently drift with the generator.
  EXPECT_EQ(restored->total_bytes(), 21449256u);
  EXPECT_EQ(restored->extract(0.03).size(), 21u);
  EXPECT_TRUE(restored->extract(0.03).contains(*PrefixKey::parse("44.141.18.0/24")));
}

TEST(WireCompat, V1ExactSnapshotLoadsIntoConfiguredEngine) {
  ExactEngine engine(Hierarchy::byte_granularity());
  wire::load_engine_into(fixture_bytes("v1_exact.snap"), engine);
  EXPECT_EQ(engine.total_bytes(), 21449256u);
}

/// A report pinned item by item: (prefix, total, conditioned) rows plus
/// the scope's total and threshold, as hhh_sets_equal compares them.
struct PinnedItem {
  const char* prefix;
  std::uint64_t total_bytes;
  std::uint64_t conditioned_bytes;
};

HhhSet pinned_set(std::uint64_t total_bytes, std::uint64_t threshold_bytes,
                  std::initializer_list<PinnedItem> items) {
  HhhSet set;
  set.total_bytes = total_bytes;
  set.threshold_bytes = threshold_bytes;
  for (const auto& item : items) {
    set.add(HhhItem{*PrefixKey::parse(item.prefix), item.total_bytes, item.conditioned_bytes});
  }
  return set;
}

TEST(WireCompat, V1RhhhSnapshotRestoresBehaviour) {
  const auto restored = harness::as_engine(wire::load_engine(fixture_bytes("v1_rhhh.snap")));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), "rhhh");

  // The fixture's engine drew one level per packet from its own RNG
  // stream, which a live engine fed through add_batch no longer replays;
  // only the exact totals still agree with one.
  RhhhEngine live(RhhhParams{.counters_per_level = 256, .seed = 913});
  live.add_batch(fixture_workload());
  EXPECT_EQ(restored->total_bytes(), live.total_bytes());

  // Both reports are pinned in full, every (prefix, total, conditioned)
  // item: they are what a live engine reported when fed the fixture stream
  // one packet at a time through the per-packet draw (the last build that
  // had it), and the restored engine matched that engine exactly.
  const HhhSet before = pinned_set(21449256u, 643478u, {
      {"44.104.231.0/24", 806520, 806520},
      {"23.84.251.0/24", 797800, 797800},
      {"44.141.18.0/24", 1526440, 1526440},
      {"44.141.168.0/24", 710900, 710900},
      {"23.84.0.0/16", 1490300, 692500},
      {"44.245.0.0/16", 1118480, 1118480},
      {"44.141.0.0/16", 3027560, 790220},
      {"57.221.0.0/16", 1154880, 1154880},
      {"18.15.0.0/16", 644820, 644820},
      {"47.43.0.0/16", 748780, 748780},
      {"44.33.0.0/16", 949920, 949920},
      {"44.66.0.0/16", 726900, 726900},
      {"23.72.0.0/16", 862260, 862260},
      {"44.104.0.0/16", 1857520, 1051000},
      {"95.223.0.0/16", 819960, 819960},
      {"95.0.0.0/8", 2168600, 1348640},
      {"57.0.0.0/8", 2626120, 1471240},
      {"18.0.0.0/8", 1352720, 707900},
      {"65.0.0.0/8", 1017920, 1017920},
      {"47.0.0.0/8", 1661280, 912500},
      {"7.0.0.0/8", 1459360, 1459360},
      {"23.0.0.0/8", 3736000, 1383440},
  });
  EXPECT_TRUE(harness::hhh_sets_equal(before, restored->extract(0.03)));

  // The v1 snapshot carried the sampler RNG state: continued ingestion
  // draws the levels that live engine drew, so the report after 5,000
  // more packets is pinned too.
  restored->add_batch(harness::TraceBuilder(78).compact_space().packets(5000));
  const HhhSet after = pinned_set(25087480u, 1254374u, {
      {"44.141.18.0/24", 1526440, 1526440},
      {"23.84.0.0/16", 1490300, 1490300},
      {"44.141.0.0/16", 3027560, 1501120},
      {"44.104.0.0/16", 1857520, 1857520},
      {"44.0.0.0/8", 7750760, 2865680},
      {"95.0.0.0/8", 2168600, 2168600},
      {"57.0.0.0/8", 2960080, 2960080},
      {"18.0.0.0/8", 1352720, 1352720},
      {"47.0.0.0/8", 1661280, 1661280},
      {"7.0.0.0/8", 1459360, 1459360},
      {"23.0.0.0/8", 3736000, 2245700},
      {"98.0.0.0/8", 1387280, 1387280},
      {"0.0.0.0/0", 24766320, 2290240},
  });
  EXPECT_TRUE(harness::hhh_sets_equal(after, restored->extract(0.05)));
}

// --- version 2: exact engines carried every hierarchy level -----------------

struct V2Fixture {
  const char* name;
  Hierarchy hierarchy;
  double v6_fraction;
  std::uint64_t golden_total;  // from the version-2 build's run
};

std::vector<V2Fixture> v2_fixtures() {
  return {{"v2_exact.snap", Hierarchy::byte_granularity(), 0.0, 21449256u},
          {"v2_exact_v6.snap", Hierarchy::v6_byte_granularity(), 1.0, 21503736u}};
}

std::uint64_t little_endian_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

void put_little_endian(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void expect_bad_value(const std::vector<std::uint8_t>& frame) {
  try {
    (void)wire::load_engine(frame);
    FAIL() << "expected kBadValue";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kBadValue) << e.what();
  }
}

/// Replace the frame's CRC with the checksum of its edited bytes, so that
/// only the payload decoder can notice the edit.
void reseal(std::vector<std::uint8_t>& frame) {
  const std::size_t body = frame.size() - wire::kFrameCrcBytes;
  put_little_endian(frame.data() + body, wire::crc32(frame.data(), body), 4);
}

/// Frame offset of the first counter of the exact-engine level block whose
/// prefix length is `len`, in a version-2 exact frame.
std::size_t v2_first_counter_of_level(const std::vector<std::uint8_t>& frame, unsigned len) {
  const wire::FrameView view = wire::parse_frame(frame);
  wire::Reader r(view.payload, view.version);
  const Hierarchy hierarchy = wire::read_hierarchy(r);
  (void)r.u64();  // total
  const auto offset = [&] {
    return wire::kFrameHeaderBytes + view.payload.size() - r.remaining();
  };
  for (std::size_t level = 0;; ++level) {
    const std::uint64_t count = r.u64();
    const bool target = hierarchy.length_at(level) == len;
    if (hierarchy.family() == AddressFamily::kIpv4) {
      if (target) return offset() + 8;  // past the first entry's u64 key
      r.skip(count * 16);
      continue;
    }
    // Compact v6 block: flagged count, u8 length, then per entry a shared
    // byte count, the differing address bytes and a varint counter.
    const unsigned sig = (r.u8() + 7) / 8;
    for (std::uint64_t i = 0; i < (count & ~(1ULL << 63)); ++i) {
      r.skip(sig - r.u8());
      if (target) return offset();
      (void)r.var_u64();
    }
  }
}

TEST(WireCompat, V2FixturesAreVersionTwo) {
  for (const auto& fixture : v2_fixtures()) {
    EXPECT_EQ(wire::parse_frame(fixture_bytes(fixture.name)).version, 2) << fixture.name;
  }
}

TEST(WireCompat, V2ExactSnapshotsLoadAndMatchLiveIngest) {
  for (const auto& fixture : v2_fixtures()) {
    SCOPED_TRACE(fixture.name);
    const auto restored = harness::as_engine(wire::load_engine(fixture_bytes(fixture.name)));
    ASSERT_NE(restored, nullptr);

    auto live = make_exact_engine(fixture.hierarchy);
    for (const auto& p : harness::TraceBuilder(77)
                             .compact_space()
                             .v6_fraction(fixture.v6_fraction)
                             .packets(30000)) {
      live->add(p);
    }
    EXPECT_EQ(restored->name(), live->name());
    EXPECT_EQ(restored->total_bytes(), live->total_bytes());
    EXPECT_EQ(restored->total_bytes(), fixture.golden_total);
    for (const double phi : {0.01, 0.03, 0.2}) {
      EXPECT_TRUE(harness::hhh_sets_equal(live->extract(phi), restored->extract(phi)))
          << "phi=" << phi;
    }
    EXPECT_EQ(restored->extract(0.03).size(), 21u);
  }
}

// Extraction derives the upper levels from the leaf, so a version-2 frame
// whose upper level disagrees with its leaf must not load: otherwise the
// disagreeing level would vanish without a trace.
TEST(WireCompat, V2UpperLevelThatDisagreesWithTheLeafIsRejected) {
  for (const auto& fixture : v2_fixtures()) {
    SCOPED_TRACE(fixture.name);
    auto frame = fixture_bytes(fixture.name);
    const unsigned len = fixture.hierarchy.family() == AddressFamily::kIpv4 ? 24 : 56;
    const std::size_t at = v2_first_counter_of_level(frame, len);
    // One more byte for v4's u64; ±1 in the low bit of v6's first varint
    // byte, which keeps the varint well-formed.
    frame[at] ^= 0x01;
    reseal(frame);
    expect_bad_value(frame);
  }
}

// --- version 3: exact engines carry the leaf level only ---------------------

TEST(WireCompat, WriterEmitsCurrentVersion) {
  ExactEngine engine(Hierarchy::byte_granularity());
  const auto frame_bytes = wire::save_engine(engine);
  EXPECT_EQ(wire::parse_frame(frame_bytes).version, wire::kSnapshotVersion);
  EXPECT_EQ(wire::kSnapshotVersion, 3);
}

TEST(WireCompat, V3ExactPayloadHoldsOneLevelBlock) {
  ExactEngine engine(Hierarchy::byte_granularity());
  engine.add_batch(fixture_workload());
  const auto frame = wire::save_engine(engine);
  const wire::FrameView view = wire::parse_frame(frame);
  wire::Reader r(view.payload, view.version);
  EXPECT_EQ(wire::read_hierarchy(r), engine.aggregates().hierarchy());
  EXPECT_EQ(r.u64(), engine.total_bytes());
  const std::uint64_t leaves = r.u64();
  EXPECT_EQ(leaves, engine.aggregates().leaves());
  r.skip(leaves * 16);  // (u64 key, u64 bytes) per leaf counter
  EXPECT_TRUE(r.done()) << "bytes follow the leaf block";
  // Smaller than the every-level version-2 frame of the same stream.
  EXPECT_LT(frame.size(), fixture_bytes("v2_exact.snap").size());
}

TEST(WireCompat, V3TotalOtherThanTheLeafSumIsRejected) {
  ExactEngine engine(Hierarchy::byte_granularity());
  engine.add_batch(fixture_workload());
  auto frame = wire::save_engine(engine);
  const wire::FrameView view = wire::parse_frame(frame);
  wire::Reader r(view.payload, view.version);
  (void)wire::read_hierarchy(r);
  std::uint8_t* total =
      frame.data() + wire::kFrameHeaderBytes + view.payload.size() - r.remaining();
  put_little_endian(total, little_endian_u64(total) + 1, 8);
  reseal(frame);
  expect_bad_value(frame);
}

/// Frame offset of the leaf block's count word in a version-3 exact frame.
std::size_t v3_leaf_count_offset(const std::vector<std::uint8_t>& frame) {
  const wire::FrameView view = wire::parse_frame(frame);
  wire::Reader r(view.payload, view.version);
  (void)wire::read_hierarchy(r);
  (void)r.u64();  // total
  return wire::kFrameHeaderBytes + view.payload.size() - r.remaining();
}

template <typename F>
void expect_wire_error(wire::WireError code, F&& decode) {
  try {
    decode();
    FAIL() << "expected " << wire::to_string(code);
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

// This build writes the leaf block in ascending key order; writers before
// it walked their hash map's slots. A block in any order loads to the same
// state as its sorted twin, and re-encodes as that twin.
TEST(WireCompat, V3LeafBlockInAnyOrderLoadsAsItsSortedTwin) {
  ExactEngine engine(Hierarchy::byte_granularity());
  engine.add_batch(fixture_workload());
  const auto sorted = wire::save_engine(engine);
  auto shuffled = sorted;
  const std::size_t count_at = v3_leaf_count_offset(shuffled);
  const std::uint64_t n = little_endian_u64(shuffled.data() + count_at);
  ASSERT_GT(n, 100u);
  std::uint8_t* entries = shuffled.data() + count_at + 8;
  Rng rng(5);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap_ranges(entries + 16 * (i - 1), entries + 16 * i, entries + 16 * rng.below(i));
  }
  reseal(shuffled);
  ASSERT_NE(shuffled, sorted);

  const auto restored = harness::as_engine(wire::load_engine(shuffled));
  EXPECT_EQ(wire::save_engine(*restored), sorted);
  for (const double phi : {0.01, 0.03, 0.2}) {
    EXPECT_TRUE(harness::hhh_sets_equal(engine.extract(phi), restored->extract(phi)));
  }
}

// The version-1 and version-2 fixtures were written in hash-slot order;
// restored, they re-encode as the canonical frame of the same stream.
TEST(WireCompat, OlderFixturesReencodeAsTheCanonicalFrame) {
  ExactEngine live(Hierarchy::byte_granularity());
  live.add_batch(fixture_workload());
  for (const char* name : {"v1_exact.snap", "v2_exact.snap"}) {
    SCOPED_TRACE(name);
    const auto restored = wire::load_engine(fixture_bytes(name));
    EXPECT_EQ(wire::save_engine(*restored), wire::save_engine(live));
  }
}

// A repeated leaf key is corrupt input whether the copies sit next to each
// other or apart (the decoder sorts an out-of-order block once, then finds
// the copies adjacent). The counters are untouched, so the total still
// matches and only the duplicate check can fire.
TEST(WireCompat, V3DuplicateLeafKeyIsBadValueAdjacentOrApart) {
  ExactEngine engine(Hierarchy::byte_granularity());
  engine.add_batch(fixture_workload());
  const auto frame = wire::save_engine(engine);
  const std::size_t count_at = v3_leaf_count_offset(frame);
  const std::uint64_t n = little_endian_u64(frame.data() + count_at);
  for (const std::uint64_t copy_to : {std::uint64_t{1}, n - 1}) {
    SCOPED_TRACE(copy_to);
    auto corrupt = frame;
    std::uint8_t* entries = corrupt.data() + count_at + 8;
    std::copy(entries, entries + 8, entries + 16 * copy_to);  // key 0 over key copy_to
    reseal(corrupt);
    expect_bad_value(corrupt);
  }
}

// A leaf count the payload cannot hold fails as truncated input before
// the decoder sizes anything by it (a reserve of that many entries would
// throw std::length_error instead).
TEST(WireCompat, LeafCountBeyondThePayloadIsTruncated) {
  ExactEngine v4(Hierarchy::byte_granularity());
  v4.add_batch(fixture_workload());
  auto v6 = make_exact_engine(Hierarchy::v6_byte_granularity());
  v6->add_batch(harness::TraceBuilder(77).compact_space().v6_fraction(1.0).packets(3000));
  constexpr std::uint64_t kCompactFlag = 1ULL << 63;
  struct Case {
    const char* name;
    std::vector<std::uint8_t> frame;
    std::uint64_t count;
  };
  for (const Case& c : {Case{"v4", wire::save_engine(v4), 1ULL << 60},
                        Case{"v6 compact", wire::save_engine(*v6), kCompactFlag | 1ULL << 60},
                        Case{"v6 per-entry", wire::save_engine(*v6), 1ULL << 60}}) {
    SCOPED_TRACE(c.name);
    auto frame = c.frame;
    put_little_endian(frame.data() + v3_leaf_count_offset(frame), c.count, 8);
    reseal(frame);
    expect_wire_error(wire::WireError::kTruncated, [&] { (void)wire::load_engine(frame); });
  }
}

TEST(WireCompat, UnknownVersionRejected) {
  auto bytes = fixture_bytes("v1_exact.snap");
  bytes[4] = 99;  // version field (little-endian u16 at offset 4)
  bytes[5] = 0;
  try {
    (void)wire::parse_frame(bytes);
    FAIL() << "expected kBadVersion";
  } catch (const wire::WireFormatError& e) {
    EXPECT_EQ(e.code(), wire::WireError::kBadVersion);
  }
}

}  // namespace
}  // namespace hhh
