// §3-T3 — "compare it with existing solutions in terms of ... resource
// utilization".
//
// Two views:
//  1. Software memory footprint of every detector configuration used in
//     the accuracy bench (bytes of state to monitor one direction of one
//     link), including the exact engines' traffic-dependent state.
//  2. Match-action budget on the pipeline model: stages, register arrays,
//     SRAM, hash calls and register RMWs per packet for the two in-switch
//     designs — HashPipe (windowed HH, ref [5]) and P4-TDBF (this paper's
//     future-work design) — plus the P4-TDBF quantized-decay accuracy cost
//     measured against exact float decay.
#include <cstdio>

#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "core/ancestry_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "core/sliding_window.hpp"
#include "core/tdbf_hhh.hpp"
#include "dataplane/hashpipe.hpp"
#include "dataplane/p4_tdbf.hpp"
#include "sketch/univmon.hpp"

using namespace hhh;
using bench::BenchOptions;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv, /*default_seconds=*/60.0,
                                       /*default_pps=*/2500.0);
  const auto packets = bench::day_trace(0, opt);
  bench::print_header("S3-T3: memory and match-action resource utilization", opt,
                      packets.size());

  // ---- software memory ------------------------------------------------------
  Table mem({"detector", "state", "notes"});

  {
    LevelAggregates agg(Hierarchy::byte_granularity());
    for (const auto& p : packets) agg.add(p.src(), p.ip_len);
    mem.add_row({"exact (one window)", human_bytes(agg.memory_bytes()),
                 "grows with distinct prefixes per window"});
  }
  {
    ExactSlidingSummary det({.window = Duration::seconds(10), .step = Duration::seconds(1)});
    det.add_batch(packets);
    mem.add_row({"exact sliding (W=10s,s=1s)", human_bytes(det.memory_bytes()),
                 "window counts + one leaf run per step"});
  }
  {
    RhhhEngine engine({.counters_per_level = 512});
    engine.add_batch(packets);
    mem.add_row({"rhhh (512/level)", human_bytes(engine.memory_bytes()),
                 "fixed: 5 space-saving instances"});
  }
  {
    AncestryHhhEngine engine({.eps = 0.005});
    engine.add_batch(packets);
    mem.add_row({"full-ancestry (eps=0.5%)", human_bytes(engine.memory_bytes()),
                 str_format("%zu trie entries", engine.entry_count())});
  }
  // The Memento detector's state is a fixed arena sized by Params alone:
  // replaying the trace a second time (timestamps shifted to stay
  // monotone) must not grow it by a byte. bench_diff has no gate here —
  // the printed equality is the bounded-state evidence the tentpole
  // claims, and core_memento_hhh_test pins it as an assertion.
  std::size_t memento_once = 0, memento_twice = 0;
  {
    MementoHhhDetector det({.window = Duration::seconds(10)});
    det.add_batch(packets);
    memento_once = det.memory_bytes();
    const Duration shift = (packets.back().ts - TimePoint()) + Duration::millis(1);
    for (PacketRecord p : packets) {
      p.ts += shift;
      det.add(p);
    }
    memento_twice = det.memory_bytes();
    mem.add_row({"memento sliding HHH (W=10s)", human_bytes(memento_once),
                 "fixed arena: 5 levels x (512 slots + delta ring)"});
  }
  {
    MementoHhhV6Detector det({.hierarchy = Hierarchy::v6_byte_granularity(),
                              .window = Duration::seconds(10)});
    // The v4 trace exercises construction only (v4 packets are ignored);
    // the arena is allocated up front, so idle state IS the footprint.
    det.add_batch(packets);
    mem.add_row({"memento_v6 sliding HHH", human_bytes(det.memory_bytes()),
                 "fixed arena: 17 levels x (512 slots + delta ring)"});
  }
  {
    UnivMon um({.levels = 8, .sketch_width = 1024, .sketch_depth = 5, .top_k = 32});
    for (const auto& p : packets) {
      um.update(p.src().v4().bits(), static_cast<std::int64_t>(p.ip_len));
    }
    mem.add_row({"univmon (8 lvl)", human_bytes(um.memory_bytes()),
                 "count-sketches + heaps"});
  }
  {
    auto params = TimeDecayingHhhDetector::for_window(Duration::seconds(10));
    TimeDecayingHhhDetector det(params);
    det.add_batch(packets);
    mem.add_row({"tdbf-hhh (windowless)", human_bytes(det.memory_bytes()),
                 "fixed: 5 decaying filters + candidates"});
  }
  std::fputs(mem.to_console().c_str(), stdout);
  std::printf("\nmemento bounded-state check: 1x traffic %s, 2x traffic %s (%s)\n",
              human_bytes(memento_once).c_str(), human_bytes(memento_twice).c_str(),
              memento_once == memento_twice ? "identical — traffic-independent"
                                            : "MISMATCH — state grew with volume");

  // ---- match-action budget ---------------------------------------------------
  Table pipe({"design", "stages", "reg arrays", "SRAM", "hash/pkt", "RMW/pkt"});

  {
    HashPipe hp({.stages = 4, .slots_per_stage = 4096});
    for (const auto& p : packets) hp.update(p.src().v4().bits(), p.ip_len);
    const auto r = hp.resources();
    pipe.add_row({"hashpipe (HH only, 1 level)", std::to_string(r.stages),
                  std::to_string(r.register_arrays), human_bytes(r.sram_bits / 8),
                  fixed(r.hash_calls_per_packet, 2),
                  fixed(r.register_accesses_per_packet, 2)});
  }
  {
    P4Tdbf tdbf({.stages = 4, .cells_per_stage = 4096,
                 .half_life = Duration::seconds(7), .phi = 0.05});
    for (const auto& p : packets) tdbf.update(p.src().v4().bits(), p.ip_len, p.ts);
    const auto r = tdbf.resources();
    pipe.add_row({"p4-tdbf (1 level)", std::to_string(r.stages),
                  std::to_string(r.register_arrays), human_bytes(r.sram_bits / 8),
                  fixed(r.hash_calls_per_packet, 2),
                  fixed(r.register_accesses_per_packet, 2)});
    // A full HHH deployment instantiates one such block per hierarchy level.
    pipe.add_row({"p4-tdbf (5 levels, byte hierarchy)", std::to_string(r.stages * 5),
                  std::to_string(r.register_arrays * 5),
                  human_bytes(r.sram_bits * 5 / 8),
                  fixed(r.hash_calls_per_packet * 5, 2),
                  fixed(r.register_accesses_per_packet * 5, 2)});
  }
  std::printf("\n");
  std::fputs(pipe.to_console().c_str(), stdout);

  // ---- quantized decay cost --------------------------------------------------
  double worst = 0.0;
  for (std::int64_t dt_ms = 1; dt_ms <= 40000; dt_ms += 97) {
    const std::uint64_t v = 1'000'000;
    const double exact =
        P4Tdbf::exact_decay(static_cast<double>(v), Duration::millis(dt_ms),
                            Duration::seconds(7));
    if (exact < 64.0) continue;  // both representations bottom out
    const double q = static_cast<double>(
        P4Tdbf::quantized_decay(v, dt_ms, Duration::seconds(7).ns() / 1'000'000));
    worst = std::max(worst, std::abs(q - exact) / exact);
  }
  std::printf("\np4-tdbf quantized decay (8-entry LUT + shift) vs exact float decay: "
              "worst relative error %s (bound: one LUT step, 2^(1/8)-1 = 9.05%%)\n",
              percent(worst, 2).c_str());
  std::printf("shape: p4-tdbf fits the same per-stage budget as hashpipe (1 RMW/stage) "
              "while replacing window resets with in-place decay.\n");
  return 0;
}
