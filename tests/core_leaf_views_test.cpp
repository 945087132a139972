// The exact leaf state's two views (LevelAggregates: the ingest map and
// the sorted run) under random operation sequences.
//
// Every operation moves the state between the views: add/add_batch/remove
// write the map (thawing a run first), report() freezes the map into the
// run, merge produces a run, a decoded frame is a run, and reset/clear
// empties both. Whatever the sequence, the state must equal one instance
// fed the concatenation of the traffic it saw since its last reset:
// equal counters at every level, equal extractions, and byte-equal frames
// (the leaf block is written in ascending key order, whatever the view).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/exact_engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/sharded_engine.hpp"
#include "harness/engine_registry.hpp"
#include "harness/golden.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_builder.hpp"
#include "util/random.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace hhh {
namespace {

constexpr double kPhis[] = {0.01, 0.05, 0.2};

std::vector<PacketRecord> stream_for(std::uint64_t seed, double v6_fraction, std::size_t n) {
  return harness::TraceBuilder(seed).compact_space().v6_fraction(v6_fraction).packets(n);
}

template <typename D>
std::vector<std::uint8_t> saved(const BasicLevelAggregates<D>& agg) {
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  agg.save_state(w);
  return bytes;
}

// --- LevelAggregates: add_batch, remove, merge, freeze, save/load, clear ----

template <typename D>
void sweep_aggregates(const Hierarchy& hierarchy, double v6_fraction, std::uint64_t base) {
  harness::for_each_seed(base, 6, [&](std::uint64_t seed) {
    const auto stream = stream_for(seed, v6_fraction, 30000);
    Rng rng(seed);
    std::size_t next = 0;
    const auto take = [&](std::size_t max) {
      const std::size_t n = std::min<std::size_t>(1 + rng.below(max), stream.size() - next);
      const std::span<const PacketRecord> chunk(stream.data() + next, n);
      next += n;
      return chunk;
    };

    BasicLevelAggregates<D> agg(hierarchy);
    std::vector<PacketRecord> live;  // the traffic agg counts, in any order
    const auto check = [&](int op) {
      SCOPED_TRACE(::testing::Message() << "op " << op);
      BasicLevelAggregates<D> want(hierarchy);
      want.add_batch(live);
      ASSERT_EQ(agg.total_bytes(), want.total_bytes());
      ASSERT_EQ(agg.leaves(), want.leaves());
      ASSERT_EQ(harness::level_counters(agg), harness::level_counters(want));
      for (const double phi : kPhis) {
        ASSERT_TRUE(harness::hhh_sets_equal(extract_hhh_relative(want, phi),
                                            extract_hhh_relative(agg, phi)));
      }
      ASSERT_EQ(saved(agg), saved(want));
    };

    for (int op = 0; op < 60 && next < stream.size(); ++op) {
      switch (rng.below(7)) {
        case 0:
        case 1: {  // ingest
          const auto chunk = take(2000);
          agg.add_batch(chunk);
          live.insert(live.end(), chunk.begin(), chunk.end());
          break;
        }
        case 2: {  // slide: remove a random share of the live traffic
          const std::size_t n = rng.below(live.size() / 2 + 1);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t at = rng.below(live.size());
            agg.remove(live[at].src(), live[at].ip_len);
            live[at] = live.back();
            live.pop_back();
          }
          break;
        }
        case 3: {  // merge a peer in either view
          BasicLevelAggregates<D> peer(hierarchy);
          const auto chunk = take(3000);
          peer.add_batch(chunk);
          if (rng.below(2) == 0) peer.freeze();
          agg.merge(peer);
          live.insert(live.end(), chunk.begin(), chunk.end());
          break;
        }
        case 4:
          agg.freeze();
          break;
        case 5: {  // round trip: the restored instance holds a decoded run
          const auto bytes = saved(agg);
          BasicLevelAggregates<D> restored(hierarchy);
          wire::Reader r(bytes);
          restored.load_state(r);
          ASSERT_TRUE(r.done());
          agg = std::move(restored);
          break;
        }
        default:
          if (rng.below(4) == 0) {
            agg.clear();
            live.clear();
          }
          break;
      }
      check(op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

TEST(LeafViews, RandomAggregateSequencesEqualTheConcatenationV4) {
  sweep_aggregates<V4Domain>(Hierarchy::byte_granularity(), 0.0, 0x1EAF'0001);
}

TEST(LeafViews, RandomAggregateSequencesEqualTheConcatenationV6) {
  sweep_aggregates<V6Domain>(Hierarchy::v6_byte_granularity(), 0.8, 0x1EAF'0002);
}

// --- engines: add_batch, merge_from, save/load, extract, report, reset -------

struct EngineUnderTest {
  const char* name;
  Hierarchy hierarchy;
  double v6_fraction;
  std::size_t shards;  // 0: a single exact engine
};

std::unique_ptr<HhhEngine> make(const EngineUnderTest& e) {
  return e.shards == 0 ? make_exact_engine(e.hierarchy)
                       : make_sharded_exact_engine(e.hierarchy, e.shards);
}

template <typename D>
void expect_same_state(const HhhEngine& got, const HhhEngine& want) {
  // A sharded engine's state is its fold, an exact engine.
  std::unique_ptr<HhhEngine> folded;
  const HhhEngine* exact = &got;
  if (const auto* sharded = dynamic_cast<const ShardedHhhEngine*>(&got)) {
    folded = sharded->fold();
    exact = folded.get();
  }
  const auto& got_agg = dynamic_cast<const BasicExactEngine<D>&>(*exact).aggregates();
  const auto& want_agg = dynamic_cast<const BasicExactEngine<D>&>(want).aggregates();
  ASSERT_EQ(got.total_bytes(), want.total_bytes());
  ASSERT_EQ(harness::level_counters(got_agg), harness::level_counters(want_agg));
  for (const double phi : kPhis) {
    ASSERT_TRUE(harness::hhh_sets_equal(want.extract(phi), got.extract(phi)));
  }
  ASSERT_EQ(wire::save_engine(*exact), wire::save_engine(want));
}

template <typename D>
void sweep_engine(const EngineUnderTest& e, std::uint64_t base) {
  SCOPED_TRACE(e.name);
  harness::for_each_seed(base, 4, [&](std::uint64_t seed) {
    const auto stream = stream_for(seed, e.v6_fraction, 30000);
    Rng rng(seed);
    std::size_t next = 0;
    const auto take = [&](std::size_t max) {
      const std::size_t n = std::min<std::size_t>(1 + rng.below(max), stream.size() - next);
      const std::span<const PacketRecord> chunk(stream.data() + next, n);
      next += n;
      return chunk;
    };

    std::unique_ptr<HhhEngine> engine = make(e);
    std::vector<PacketRecord> fed;  // since the last reset
    for (int op = 0; op < 30 && next < stream.size(); ++op) {
      SCOPED_TRACE(::testing::Message() << "op " << op);
      switch (rng.below(6)) {
        case 0:
        case 1: {
          const auto chunk = take(3000);
          engine->add_batch(chunk);
          fed.insert(fed.end(), chunk.begin(), chunk.end());
          break;
        }
        case 2: {  // a merge split (sharded engines split across their shards)
          if (!engine->mergeable()) break;
          auto peer = make_exact_engine(e.hierarchy);
          const auto chunk = take(3000);
          peer->add_batch(chunk);
          if (rng.below(2) == 0) (void)peer->report(TimePoint(), 0.05);  // a run-side peer
          engine->merge_from(*peer);
          fed.insert(fed.end(), chunk.begin(), chunk.end());
          break;
        }
        case 3: {  // save/load
          const auto bytes = wire::save_engine(*engine);
          if (engine->mergeable()) {
            engine = harness::as_engine(wire::load_engine(bytes));
          } else {
            auto restored = make(e);
            wire::load_engine_into(bytes, *restored);
            engine = std::move(restored);
          }
          break;
        }
        case 4:
          (void)engine->report(TimePoint(), kPhis[rng.below(3)]);
          break;
        default:
          if (rng.below(3) == 0) {
            engine->reset();
            fed.clear();
          }
          break;
      }
      auto want = make_exact_engine(e.hierarchy);
      want->add_batch(fed);
      expect_same_state<D>(*engine, *want);
      if (::testing::Test::HasFatalFailure()) return;
    }
  });
}

TEST(LeafViews, RandomExactEngineSequencesEqualTheConcatenation) {
  sweep_engine<V4Domain>({"exact", Hierarchy::byte_granularity(), 0.0, 0}, 0x1EAF'0003);
}

TEST(LeafViews, RandomExactV6EngineSequencesEqualTheConcatenation) {
  sweep_engine<V6Domain>({"exact_v6", Hierarchy::v6_nibble_granularity(), 1.0, 0},
                         0x1EAF'0004);
}

TEST(LeafViews, RandomShardedExactSequencesEqualTheConcatenation) {
  sweep_engine<V4Domain>({"sharded_exact", Hierarchy::byte_granularity(), 0.0, 3},
                         0x1EAF'0005);
}

// --- canonical frames ---------------------------------------------------------

// Equal counters write equal bytes: ingest order, batch sizes and merge
// splits leave no trace in the frame.
template <typename D>
void expect_canonical_frames(const Hierarchy& hierarchy, double v6_fraction) {
  const auto packets = stream_for(0x1EAF'0006, v6_fraction, 20000);
  BasicExactEngine<D> one(hierarchy);
  one.add_batch(packets);
  const auto bytes = wire::save_engine(one);

  BasicExactEngine<D> reversed(hierarchy);
  for (auto it = packets.rbegin(); it != packets.rend(); ++it) reversed.add(*it);
  EXPECT_EQ(wire::save_engine(reversed), bytes) << "reverse order, one packet at a time";

  std::vector<PacketRecord> shuffled = packets;
  Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  BasicExactEngine<D> batched(hierarchy);
  for (std::size_t at = 0; at < shuffled.size(); at += 7) {
    batched.add_batch(std::span<const PacketRecord>(shuffled).subspan(
        at, std::min<std::size_t>(7, shuffled.size() - at)));
  }
  EXPECT_EQ(wire::save_engine(batched), bytes) << "shuffled, batches of 7";

  BasicExactEngine<D> merged(hierarchy);
  for (std::size_t part = 0; part < 3; ++part) {
    BasicExactEngine<D> vantage(hierarchy);
    for (std::size_t i = part; i < packets.size(); i += 3) vantage.add(packets[i]);
    merged.merge_from(vantage);
  }
  EXPECT_EQ(wire::save_engine(merged), bytes) << "three-way merge split";

  const auto sharded = make_sharded_exact_engine(hierarchy, 2);
  sharded->add_batch(packets);
  EXPECT_EQ(wire::save_engine(*dynamic_cast<ShardedHhhEngine&>(*sharded).fold()), bytes)
      << "sharded fold";
}

TEST(LeafViews, EqualCountersWriteByteIdenticalFramesV4) {
  expect_canonical_frames<V4Domain>(Hierarchy::byte_granularity(), 0.0);
}

TEST(LeafViews, EqualCountersWriteByteIdenticalFramesV6) {
  expect_canonical_frames<V6Domain>(Hierarchy::v6_byte_granularity(), 1.0);
}

}  // namespace
}  // namespace hhh
