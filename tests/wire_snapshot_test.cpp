// Wire-format robustness: corrupt, truncated or mismatched snapshot
// bytes must produce *typed* errors (wire::WireFormatError with the
// right code) — never UB, never a crash, never a silently wrong engine.
//
// The suite is fuzz-ish by construction: beyond the named corruption
// table it truncates a valid frame at every possible length and applies
// hundreds of seeded random mutations, asserting that nothing but
// WireFormatError ever escapes the decoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/rhhh.hpp"
#include "harness/engine_registry.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"
#include "service/frame_stream.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"
#include "wire/codec.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

using wire::WireError;
using wire::WireFormatError;

std::vector<std::uint8_t> valid_frame() {
  ExactEngine engine(Hierarchy::byte_granularity());
  for (const auto& p : harness::TraceBuilder(7).compact_space().packets(2000)) {
    engine.add(p);
  }
  return wire::save_engine(engine);
}

WireError code_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)wire::load_engine(bytes);
  } catch (const WireFormatError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return WireError::kBadValue;
}

// ---------------------------------------------------------------- primitives

TEST(WirePrimitives, RoundTripEveryScalarType) {
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159265358979);
  w.boolean(true);
  w.str("hhh");

  wire::Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.14159265358979);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hhh");
  EXPECT_TRUE(r.done());
}

TEST(WirePrimitives, EncodingIsLittleEndianByConstruction) {
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u32(0x11223344u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(WirePrimitives, ReaderThrowsTypedTruncationOnEveryAccessor) {
  std::vector<std::uint8_t> empty;
  wire::Reader r(empty);
  try {
    r.u64();
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kTruncated);
  }
}

TEST(WirePrimitives, CountRejectsImpossibleLengths) {
  // A corrupt 2^60 element count must throw, not drive a huge allocation.
  std::vector<std::uint8_t> buf;
  wire::Writer w(buf);
  w.u64(1ull << 60);
  wire::Reader r(buf);
  try {
    (void)r.count(8);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kTruncated);
  }
}

TEST(WirePrimitives, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
}

/// The textbook one-byte-per-step CRC-32 register: the specification both
/// the folding kernel and the sliced table loop must reproduce bit for bit.
/// `c` is the inverted running value (seed ^ 0xFFFFFFFF to start).
std::uint32_t bytewise_step(std::uint32_t c, const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed = 0) {
  return bytewise_step(seed ^ 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  return buf;
}

TEST(WirePrimitives, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length through the short-buffer path, the 64-byte threshold,
  // the single-block folds and many rounds of the 4-way fold loop, each
  // with every tail length and every start offset within a 16-byte block.
  RecordProperty("pclmul", simd::have_pclmul() ? "yes" : "no");
  constexpr std::size_t kMaxLen = 2048;
  const std::vector<std::uint8_t> buf = random_bytes(0xC3C32, kMaxLen + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    std::uint32_t reference = 0xFFFFFFFFu;  // register over p[0, len)
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(wire::crc32(p, len), reference ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
      reference = bytewise_step(reference, p + len, 1);
    }
  }
}

TEST(WirePrimitives, Crc32MatchesBytewiseReferenceAroundOneMebibyte) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const std::vector<std::uint8_t> buf = random_bytes(0x1F1B, kMiB + 128);
  Rng rng(0x1E1E);
  std::vector<std::size_t> lengths = {kMiB - 1, kMiB, kMiB + 15, kMiB + 64};
  for (int i = 0; i < 4; ++i) lengths.push_back(kMiB - 64 + rng.next() % 128);
  for (const std::size_t len : lengths) {
    const std::size_t offset = rng.next() % 16;
    ASSERT_EQ(wire::crc32(buf.data() + offset, len), bytewise_crc32(buf.data() + offset, len))
        << "offset " << offset << " length " << len;
  }
}

TEST(WirePrimitives, Crc32HonoursRandomNonZeroSeeds) {
  const std::vector<std::uint8_t> buf = random_bytes(0x5EED5, 1024 + 16);
  Rng rng(0xA11CE);
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t seed = 0;
    while (seed == 0) seed = static_cast<std::uint32_t>(rng.next());
    const std::size_t offset = rng.next() % 16;
    const std::size_t len = rng.next() % 1025;
    ASSERT_EQ(wire::crc32(buf.data() + offset, len, seed),
              bytewise_crc32(buf.data() + offset, len, seed))
        << "seed " << seed << " offset " << offset << " length " << len;
  }
}

TEST(WirePrimitives, Crc32SeedChainsAcrossSplits) {
  // Splits on both sides of the 64-byte threshold: a short head chaining
  // into a folded tail, a folded head into a short tail, and both folded.
  const std::vector<std::uint8_t> buf = random_bytes(0x5EED, 777);
  const std::uint32_t whole = wire::crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, bytewise_crc32(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = wire::crc32(buf.data(), split);
    ASSERT_EQ(wire::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

// ----------------------------------------------------- corruption table test

struct Corruption {
  const char* name;
  std::size_t offset;          // byte to clobber
  std::uint8_t value;          // value to write
  WireError expected;
};

TEST(WireSnapshotRobustness, NamedCorruptionsYieldTypedErrors) {
  const std::vector<std::uint8_t> good = valid_frame();
  ASSERT_NO_THROW((void)wire::load_engine(good));

  const std::vector<Corruption> table = {
      {"magic byte 0", 0, 'X', WireError::kBadMagic},
      {"magic byte 3", 3, 's', WireError::kBadMagic},
      {"version low byte", 4, 0xFF, WireError::kBadVersion},
      {"version high byte", 5, 0x7F, WireError::kBadVersion},
      {"kind -> unknown", 6, 0xEE, WireError::kBadValue},
      {"length grows past buffer", 9, 0xFF, WireError::kTruncated},
      {"payload bit rot", 20, 0xA5, WireError::kBadCrc},
      {"crc clobbered", 0xFFFF, 0x00, WireError::kBadCrc},  // offset fixed below
  };
  for (const Corruption& c : table) {
    std::vector<std::uint8_t> bad = good;
    const std::size_t offset = c.offset == 0xFFFF ? bad.size() - 1 : c.offset;
    // Guarantee the write actually changes the byte.
    bad[offset] = bad[offset] == c.value ? static_cast<std::uint8_t>(c.value ^ 0xA0)
                                         : c.value;
    EXPECT_EQ(code_of(bad), c.expected) << c.name;
  }
}

TEST(WireSnapshotRobustness, EveryTruncationLengthIsTyped) {
  const std::vector<std::uint8_t> good = valid_frame();
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + len);
    try {
      (void)wire::load_engine(cut);
      ADD_FAILURE() << "decode of " << len << "-byte truncation succeeded";
    } catch (const WireFormatError& e) {
      // Cutting inside the CRC/payload region reads as a truncated frame;
      // nothing else may escape.
      EXPECT_TRUE(e.code() == WireError::kTruncated || e.code() == WireError::kBadCrc)
          << "truncation at " << len << " gave " << wire::to_string(e.code());
    }
  }
}

TEST(WireSnapshotRobustness, TrailingBytesAreRejectedStrictly) {
  std::vector<std::uint8_t> padded = valid_frame();
  padded.push_back(0x00);
  EXPECT_EQ(code_of(padded), WireError::kTrailingBytes);
}

TEST(WireSnapshotRobustness, RandomMutationSweepNeverEscapesTypedErrors) {
  const std::vector<std::uint8_t> good = valid_frame();
  harness::for_each_seed(0xF422'0001, 4, [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::uint8_t> bad = good;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.below(bad.size());
        bad[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      try {
        // Success is allowed (a flip can cancel another); anything thrown
        // must be the typed error.
        (void)wire::load_engine(bad);
      } catch (const WireFormatError&) {
        // expected class
      }
    }
  });
}

TEST(WireSnapshotRobustness, CrcValidCraftedSizeParamsAreTypedNotAllocated) {
  // CRC-valid frames are still untrusted: hand-crafted params that would
  // size huge state must be rejected with a typed error *before* any
  // allocation — not escape as std::length_error / std::bad_alloc or
  // attempt a multi-GB allocation (the collector decodes snapshots from
  // the network).
  struct Hostile {
    const char* name;
    std::vector<std::uint8_t> frame;
    WireError code;
    const char* what;  // the params check that must fire
  };
  std::vector<Hostile> cases;
  {
    // RHHH declaring 2^60 counters per level.
    std::vector<std::uint8_t> payload;
    wire::Writer w(payload);
    wire::write_hierarchy(w, Hierarchy::byte_granularity());
    w.u64(1ull << 60);  // counters_per_level: absurd
    w.boolean(false);
    w.u64(42);  // seed
    cases.push_back({"rhhh", wire::build_frame(wire::SnapshotKind::kRhhhEngine, payload),
                     WireError::kBadValue, "counters_per_level out of range"});
  }
  {
    // UnivMon at the largest in-range shape (32 levels, width 2^20, depth
    // 16) with no tables: 75 bytes that would size ~2.4 GB of
    // count-sketch counters across the 5 hierarchy levels.
    std::vector<std::uint8_t> payload;
    wire::Writer w(payload);
    wire::write_hierarchy(w, Hierarchy::byte_granularity());
    w.u64(32);         // sampling levels
    w.u64(1u << 20);   // sketch width
    w.u64(16);         // sketch depth
    w.u64(64);         // top_k
    w.u64(42);         // seed
    w.u64(0);          // total bytes; the tables are missing
    auto frame = wire::build_frame(wire::SnapshotKind::kUnivmonEngine, payload);
    EXPECT_EQ(frame.size(), 75u);
    cases.push_back({"univmon", std::move(frame), WireError::kTruncated,
                     "sketch tables exceed the payload"});
  }
  for (const Hostile& c : cases) {
    SCOPED_TRACE(c.name);
    try {
      (void)wire::load_engine(c.frame);
      ADD_FAILURE() << "expected WireFormatError";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(e.code(), c.code);
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------------- params checks

TEST(WireSnapshotRobustness, ParamsMismatchOnRestoreIsTyped) {
  ExactEngine byte_engine(Hierarchy::byte_granularity());
  byte_engine.add(harness::packet_at(0.0, Ipv4Address::of(1, 2, 3, 4), 100));
  const auto frame = wire::save_engine(byte_engine);

  ExactEngine bit_engine(Hierarchy::bit_granularity());
  try {
    wire::load_engine_into(frame, bit_engine);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kParamsMismatch);
  }
}

TEST(WireSnapshotRobustness, KindMismatchOnRestoreIsTyped) {
  RhhhEngine rhhh(RhhhEngine::Params{.counters_per_level = 64, .seed = 1});
  const auto frame = wire::save_engine(rhhh);
  ExactEngine exact(Hierarchy::byte_granularity());
  try {
    wire::load_engine_into(frame, exact);
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kParamsMismatch);
  }
}

TEST(WireSnapshotRobustness, MergeAcrossConfigurationsThrowsInvalidArgument) {
  // Params mismatch *between* deserialized vantages surfaces through
  // merge_from's std::invalid_argument — the collector maps it to its
  // "incompatible snapshots" exit.
  auto a = std::make_unique<RhhhEngine>(
      RhhhEngine::Params{.counters_per_level = 64, .seed = 1});
  auto b = std::make_unique<RhhhEngine>(
      RhhhEngine::Params{.counters_per_level = 128, .seed = 1});
  auto a2 = wire::load_engine(wire::save_engine(*a));
  auto b2 = wire::load_engine(wire::save_engine(*b));
  EXPECT_THROW(a2->merge_from(*b2), std::invalid_argument);
}

// ---------------------------------------------------------------- frame/file

TEST(WireSnapshotFraming, ConcatenatedFramesParseSequentially) {
  const std::vector<std::uint8_t> one = valid_frame();
  std::vector<std::uint8_t> stream = one;
  stream.insert(stream.end(), one.begin(), one.end());

  std::span<const std::uint8_t> rest(stream);
  int frames = 0;
  while (!rest.empty()) {
    const wire::FrameView view = wire::parse_frame(rest);
    EXPECT_EQ(view.kind, wire::SnapshotKind::kExactEngine);
    auto engine = harness::as_engine(wire::load_engine(view));
    EXPECT_GT(engine->total_bytes(), 0u);
    rest = rest.subspan(view.frame_size);
    ++frames;
  }
  EXPECT_EQ(frames, 2);
}

/// Little-endian bytes appended field by field, independently of
/// wire::Writer: the hand-built side of the framing pin below.
struct LeBytes {
  std::vector<std::uint8_t> bytes;
  LeBytes& le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  LeBytes& raw(std::span<const std::uint8_t> b) {
    bytes.insert(bytes.end(), b.begin(), b.end());
    return *this;
  }
};

/// The frame the layout table in wire/snapshot.hpp describes: magic,
/// version, kind, u64 payload length, payload, bytewise CRC-32.
std::vector<std::uint8_t> reference_frame(wire::SnapshotKind kind,
                                          std::span<const std::uint8_t> payload) {
  LeBytes f;
  f.raw(wire::kSnapshotMagic)
      .le(wire::kSnapshotVersion, 2)
      .le(static_cast<std::uint16_t>(kind), 2)
      .le(payload.size(), 8)
      .raw(payload);
  return f.le(bytewise_crc32(f.bytes.data(), f.bytes.size()), 4).bytes;
}

TEST(WireSnapshotFraming, EveryFrameBuilderMatchesTheHandBuiltLayout) {
  int engines = 0;
  for (const auto& c : harness::conformance_engines()) {
    auto engine = c.make();
    if (!engine->serializable()) continue;
    engine->add_batch(
        harness::TraceBuilder(31).compact_space().v6_fraction(c.v6_fraction).packets(3000));
    std::vector<std::uint8_t> state;
    wire::Writer w(state);
    engine->save_state(w);
    ASSERT_EQ(wire::save_engine(*engine),
              reference_frame(wire::engine_snapshot_kind(*engine), state))
        << c.name;
    ++engines;
  }
  EXPECT_GT(engines, 0);

  const std::vector<std::uint8_t> inner = valid_frame();
  const auto epoch = LeBytes{}
                         .le(service::kStreamProtoVersion, 2)
                         .le(static_cast<std::uint64_t>(std::int64_t{-5}), 8)
                         .le(1'000'000'007, 8)
                         .le(42, 8)
                         .raw(inner)
                         .bytes;
  EXPECT_EQ(service::build_epoch(-5, 1'000'000'007, 42, inner),
            reference_frame(wire::SnapshotKind::kEpochFrame, epoch));

  const std::string vantage = "edge-7";
  const auto hello = LeBytes{}
                         .le(service::kStreamProtoVersion, 2)
                         .le(vantage.size(), 4)
                         .raw(std::span(reinterpret_cast<const std::uint8_t*>(vantage.data()),
                                        vantage.size()))
                         .le(250'000'000, 8)
                         .bytes;
  EXPECT_EQ(service::build_hello(service::Hello{.vantage = vantage, .window_ns = 250'000'000}),
            reference_frame(wire::SnapshotKind::kStreamHello, hello));

  const auto bye = LeBytes{}.le(service::kStreamProtoVersion, 2).le(17, 8).bytes;
  EXPECT_EQ(service::build_bye(service::Bye{.frames_sent = 17}),
            reference_frame(wire::SnapshotKind::kStreamBye, bye));
}

TEST(WireSnapshotFraming, FileRoundTripSurvivesRename) {
  const auto path = (std::filesystem::temp_directory_path() / "hhh_wire_test.snap").string();
  const std::vector<std::uint8_t> frame = valid_frame();
  wire::write_file(path, frame);
  EXPECT_EQ(wire::read_file(path), frame);
  std::filesystem::remove(path);
}

TEST(WireSnapshotFraming, MissingFileThrowsRuntimeError) {
  EXPECT_THROW((void)wire::read_file("/nonexistent/hhh/nope.snap"), std::runtime_error);
}

}  // namespace
}  // namespace hhh
