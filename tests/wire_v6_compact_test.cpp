// The compact v6 snapshot encoding: varints, delta-encoded level maps,
// legacy-block compatibility, and the size win that motivated it
// (exact_v6 snapshots were 65.7 MB of mostly-redundant bytes).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/level_aggregates.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "net/hierarchy.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

// ----------------------------------------------------------------- varint

TEST(VarintTest, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  0xFFFFFFFFULL,
                                  1ULL << 62,
                                  ~0ULL};
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  for (const auto v : values) w.var_u64(v);
  wire::Reader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.var_u64(), v);
  EXPECT_TRUE(r.done());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  w.var_u64(127);
  EXPECT_EQ(bytes.size(), 1u);
  w.var_u64(128);
  EXPECT_EQ(bytes.size(), 3u);  // 127 took 1, 128 takes 2
}

TEST(VarintTest, OverlongAndOverflowingEncodingsAreTypedErrors) {
  {
    // 10 continuation bytes and beyond: never a valid u64.
    const std::vector<std::uint8_t> bytes(11, 0x80);
    wire::Reader r(bytes);
    EXPECT_THROW(r.var_u64(), wire::WireFormatError);
  }
  {
    // Tenth byte carrying bits past the 64th.
    std::vector<std::uint8_t> bytes(9, 0x80);
    bytes.push_back(0x02);
    wire::Reader r(bytes);
    EXPECT_THROW(r.var_u64(), wire::WireFormatError);
  }
  {
    // Truncated mid-varint.
    const std::vector<std::uint8_t> bytes = {0x80};
    wire::Reader r(bytes);
    EXPECT_THROW(r.var_u64(), wire::WireFormatError);
  }
}

// ------------------------------------------------- compact v6 level maps

LevelAggregatesV6 sample_aggregates() {
  LevelAggregatesV6 agg(Hierarchy::v6_byte_granularity());
  // A hierarchical cluster (shared 2001:db8::/32 bytes) plus an outlier.
  agg.add(IpAddress::v6(0x2001'0db8'0000'0001ULL, 0x1), 1000);
  agg.add(IpAddress::v6(0x2001'0db8'0000'0002ULL, 0x2), 250000);
  agg.add(IpAddress::v6(0x2001'0db8'1111'0000ULL, 0x3), 7);
  agg.add(IpAddress::v6(0xfd00'0000'0000'0000ULL, 0x4), 123456789);
  return agg;
}

std::vector<std::uint8_t> serialized(const LevelAggregatesV6& agg) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  agg.save_state(w);
  return bytes;
}

TEST(CompactV6Test, LevelAggregatesRoundTripLosslessly) {
  const LevelAggregatesV6 agg = sample_aggregates();
  const auto bytes = serialized(agg);

  LevelAggregatesV6 restored(Hierarchy::v6_byte_granularity());
  wire::Reader r(bytes);
  restored.load_state(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(restored.total_bytes(), agg.total_bytes());
  for (std::size_t level = 0; level < Hierarchy::v6_byte_granularity().levels(); ++level) {
    EXPECT_EQ(restored.distinct_at(level), agg.distinct_at(level)) << "level " << level;
    agg.for_each_at(level, [&](const V6Domain::MapKey& key, std::uint64_t bytes_at) {
      EXPECT_EQ(restored.count(V6Domain::prefix(key)), bytes_at)
          << V6Domain::prefix(key).to_string();
    });
  }
}

TEST(CompactV6Test, LegacyPerEntryBlocksStillDecode) {
  // A pre-compact build's v2 payload: plain count, (hi, lo, len, u64)
  // entries. The reader must accept it unchanged (the flag bit is clear).
  const LevelAggregatesV6 agg = sample_aggregates();
  std::vector<std::uint8_t> legacy;
  wire::Writer w(legacy);
  wire::write_hierarchy(w, agg.hierarchy());
  w.u64(agg.total_bytes());
  for (std::size_t level = 0; level < agg.hierarchy().levels(); ++level) {
    w.u64(agg.distinct_at(level));
    agg.for_each_at(level, [&](const V6Domain::MapKey& key, std::uint64_t bytes_at) {
      V6Domain::write_key(w, key);
      w.u64(bytes_at);
    });
  }

  LevelAggregatesV6 restored(Hierarchy::v6_byte_granularity());
  wire::Reader r(legacy, 2);  // every level, as version 2 carried them
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.total_bytes(), agg.total_bytes());
  agg.for_each_at(0, [&](const V6Domain::MapKey& key, std::uint64_t bytes_at) {
    EXPECT_EQ(restored.count(V6Domain::prefix(key)), bytes_at);
  });
}

TEST(CompactV6Test, CorruptCompactBlocksAreTypedErrors) {
  const auto bytes = serialized(sample_aggregates());
  // Payload layout: hierarchy (1 family + 1 level-count + 17 lengths = 19
  // bytes), u64 total, then level 0's block: u64 flagged count, u8 len,
  // u8 shared, ...
  const std::size_t count_at = 19 + 8;
  ASSERT_GT(bytes.size(), count_at + 10);
  ASSERT_NE(bytes[count_at + 7] & 0x80, 0) << "level 0 block is not compact";

  auto corrupt = bytes;
  corrupt[count_at + 9] = 0xFF;  // first entry's shared count: 255 > 16
  LevelAggregatesV6 restored(Hierarchy::v6_byte_granularity());
  wire::Reader r(corrupt);
  EXPECT_THROW(restored.load_state(r), wire::WireFormatError);
}

TEST(CompactV6Test, ExactV6SnapshotShrinksAndStaysByteIdentical) {
  // Realistic hierarchical v6 traffic via the conformance workload.
  const auto packets =
      harness::TraceBuilder(77).compact_space().v6_fraction(1.0).packets(20000);
  auto engine = make_exact_engine(Hierarchy::v6_nibble_granularity());
  engine->add_batch(packets);

  const auto frame = wire::save_engine(*engine);
  auto restored = harness::as_engine(wire::load_engine(frame));
  EXPECT_EQ(restored->total_bytes(), engine->total_bytes());
  EXPECT_TRUE(harness::hhh_sets_equal(engine->extract(0.01), restored->extract(0.01)));

  // The size win: the naive encoding costs 25 B per live counter entry.
  const auto& agg =
      dynamic_cast<const ExactV6Engine&>(*engine).aggregates();
  std::size_t entries = 0;
  for (std::size_t level = 0; level < agg.hierarchy().levels(); ++level) {
    entries += agg.distinct_at(level);
  }
  const std::size_t naive = entries * 25;
  EXPECT_LT(frame.size(), naive / 2)
      << "compact encoding should at least halve the naive " << naive << " bytes";
}

}  // namespace
}  // namespace hhh
