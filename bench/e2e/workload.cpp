#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "trace/flow_model.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/hash.hpp"

namespace hhh::e2e {

namespace {

/// T as a share of one vantage's nominal background bytes per window.
constexpr double kThresholdShare = 0.05;
/// The planted source's bytes per vantage and window, as a share of T.
constexpr double kPlantedShare = 0.5;
/// Below this share of epochs with the planted prefix hidden, a fleet
/// workload cannot reveal what it claims to and the bench refuses to run.
constexpr double kMinPlantedHidden = 0.95;
/// Packets per oracle add_batch call (the pipeline's default batch).
constexpr std::size_t kOracleBatch = 4096;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Run `fn(i)` for i in [0, n) on at most hardware_concurrency threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  const std::size_t threads =
      std::min<std::size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n && !failed; i = next++) {
        try {
          fn(i);
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

double scope_phi(double threshold_bytes, std::uint64_t total) {
  if (total == 0) return 1.0;
  return std::min(1.0, threshold_bytes / static_cast<double>(total));
}

/// One vantage's trace: a CAIDA-like day seeded from (seed, vantage) plus
/// the planted episode, optionally embedded into v6.
std::vector<PacketRecord> vantage_trace(const Workload& w, std::uint64_t seed,
                                        std::size_t vantage, double pps, Duration span,
                                        double planted_pps) {
  TraceConfig cfg = TraceConfig::caida_like_day(static_cast<int>(vantage), span, pps);
  cfg.seed = hash_u64(vantage, seed);
  cfg.episodes.push_back(
      DdosEpisode{.start = TimePoint(),
                  .duration = span,
                  .pps = planted_pps,
                  .source_prefix = Ipv4Prefix(Ipv4Address::of(203, 0, 113, 0), 24),
                  .target = Ipv4Address::of(198, 51, 100, 7)});
  std::vector<PacketRecord> packets = SyntheticTraceGenerator(cfg).generate_all();
  if (w.v6) {
    // The generator pins episode packets to v4, so the whole trace is
    // embedded here: the same packets, a v4 /L becoming the v6 /(32+L).
    for (PacketRecord& p : packets) {
      p.set_src(v6_embed(p.src().v4()));
      p.set_dst(v6_embed(p.dst().v4()));
    }
  }
  return packets;
}

/// Index of the first packet of every window, plus the end.
std::vector<std::size_t> window_starts(const std::vector<PacketRecord>& packets,
                                       Duration window, std::size_t windows) {
  std::vector<std::size_t> starts(windows + 1);
  for (std::size_t k = 0; k <= windows; ++k) {
    const TimePoint boundary = TimePoint() + window * static_cast<std::int64_t>(k);
    starts[k] = static_cast<std::size_t>(
        std::lower_bound(packets.begin(), packets.end(), boundary,
                         [](const PacketRecord& p, TimePoint t) { return p.ts < t; }) -
        packets.begin());
  }
  return starts;
}

}  // namespace

Hierarchy Workload::hierarchy() const {
  return v6 ? Hierarchy::v6_byte_granularity() : Hierarchy::byte_granularity();
}

const std::vector<Workload>& workloads() {
  // Rates are low and windows long on purpose: the same packets per
  // window as a 4x faster trace, but drawn from 4x as many burst events,
  // so one seed's traffic varies less from the next seed's.
  static const std::vector<Workload> table = {
      // Collector-bound: 3 vantages' MB-scale exact frames to decode and merge.
      {.name = "fleet_v4_exact",
       .vantages = 3,
       .engine = EngineKind::kExact,
       .background_pps = 25'000.0,
       .window_s = 2.0,
       .epochs_per_loop = 40,
       .loops = 1},
      // Open loop at 100 epochs/s with small fixed-size frames: per-epoch
      // fixed costs set the reveal latency.
      {.name = "fleet_v4_rhhh_paced",
       .vantages = 3,
       .engine = EngineKind::kRhhh,
       .background_pps = 12'500.0,
       .window_s = 1.0,
       .epochs_per_loop = 80,
       .loops = 2,
       .speed = 100.0,
       .checkpoint = true},
      // The v6 key layer and compact codec end to end.
      {.name = "vantage_v6_exact",
       .vantages = 1,
       .engine = EngineKind::kExactV6,
       .background_pps = 6'250.0,
       .window_s = 2.0,
       .epochs_per_loop = 60,
       .loops = 1,
       .v6 = true},
      // Shard dispatch and the epoch-snapshot fold. At 25k pps the fold
      // time per close is either ~18 ms or ~48 ms depending on the seed;
      // 35k pps keeps clear of that cliff.
      {.name = "vantage_v4_sharded",
       .vantages = 1,
       .engine = EngineKind::kShardedExact,
       .background_pps = 35'000.0,
       .window_s = 2.0,
       .epochs_per_loop = 40,
       .loops = 1},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

PrefixKey planted_prefix(bool v6) {
  return *PrefixKey::parse(v6 ? "2001:db8:cb00:7100::/56" : "203.0.113.0/24");
}

OracleEpoch oracle_epoch(std::span<const VantageSlice> slices, double threshold_bytes) {
  // Group vantages by family: each family is one merge group, the way the
  // collector groups frames by engine name.
  std::vector<std::vector<const VantageSlice*>> groups;
  for (const VantageSlice& s : slices) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.front()->hierarchy.family() == s.hierarchy.family();
    });
    if (it == groups.end()) {
      groups.push_back({&s});
    } else {
      it->push_back(&s);
    }
  }
  const auto ingest = [](HhhEngine& engine, std::span<const PacketRecord> packets) {
    // Pipeline-sized batches: one add_batch over a whole epoch is several
    // times slower than the same packets in 4096-packet calls.
    for (std::size_t i = 0; i < packets.size(); i += kOracleBatch) {
      engine.add_batch(packets.subspan(i, std::min(kOracleBatch, packets.size() - i)));
    }
  };
  const auto heavy = [&](const HhhEngine& engine) {
    return engine.extract(scope_phi(threshold_bytes, engine.total_bytes())).prefixes();
  };
  PrefixUnion local;
  PrefixUnion merged;
  std::vector<std::vector<PrefixKey>> group_merged;
  for (const auto& group : groups) {
    const auto all = make_exact_engine(group.front()->hierarchy);
    for (const VantageSlice* s : group) ingest(*all, s->packets);
    group_merged.push_back(heavy(*all));
    merged.add(group_merged.back());
    if (group.size() == 1) {
      // A lone vantage's local set is the union's set.
      local.add(group_merged.back());
      continue;
    }
    for (const VantageSlice* s : group) {
      const auto mine = make_exact_engine(s->hierarchy);
      ingest(*mine, s->packets);
      local.add(heavy(*mine));
    }
  }
  PrefixUnion hidden;
  for (const auto& g : group_merged) hidden.add(prefix_difference(g, local.values()));
  return OracleEpoch{.merged = merged.values(), .hidden = hidden.values()};
}

Traffic make_traffic(const Workload& w, std::uint64_t seed, double scale) {
  Traffic t;
  // The smoke run shrinks rate and length by the same factor's square root.
  const double shrink = std::sqrt(std::clamp(scale, 1e-6, 1.0));
  t.epochs_per_loop = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(static_cast<double>(w.epochs_per_loop) * shrink)));
  const double pps = w.background_pps * shrink;
  const Duration window = Duration::from_seconds(w.window_s);
  t.loop_span = window * static_cast<std::int64_t>(t.epochs_per_loop);
  const double mean_bytes = PacketSizeModel{}.mean();
  t.threshold_bytes = kThresholdShare * pps * w.window_s * mean_bytes;
  const double planted_pps = kPlantedShare * t.threshold_bytes / (w.window_s * mean_bytes);

  const auto t0 = std::chrono::steady_clock::now();
  t.vantages.resize(w.vantages);
  parallel_for(w.vantages, [&](std::size_t v) {
    t.vantages[v] = vantage_trace(w, seed, v, pps, t.loop_span, planted_pps);
  });
  t.generate_s = seconds_since(t0);
  return t;
}

Oracle make_oracle(const Workload& w, const Traffic& t) {
  Oracle o;
  const auto t0 = std::chrono::steady_clock::now();
  const Duration window = Duration::from_seconds(w.window_s);
  std::vector<std::vector<std::size_t>> starts;
  for (const auto& packets : t.vantages) {
    starts.push_back(window_starts(packets, window, t.epochs_per_loop));
  }
  const Hierarchy hierarchy = w.hierarchy();
  o.epochs.resize(t.epochs_per_loop);
  parallel_for(t.epochs_per_loop, [&](std::size_t k) {
    std::vector<VantageSlice> slices;
    for (std::size_t v = 0; v < w.vantages; ++v) {
      const auto& packets = t.vantages[v];
      slices.push_back(VantageSlice{
          .hierarchy = hierarchy,
          .packets = std::span<const PacketRecord>(packets).subspan(
              starts[v][k], starts[v][k + 1] - starts[v][k])});
    }
    o.epochs[k] = oracle_epoch(slices, t.threshold_bytes);
  });
  o.seconds = seconds_since(t0);

  const PrefixKey planted = planted_prefix(w.v6);
  const auto hidden_epochs = std::count_if(o.epochs.begin(), o.epochs.end(), [&](const auto& e) {
    return std::binary_search(e.hidden.begin(), e.hidden.end(), planted);
  });
  o.planted_hidden_share =
      static_cast<double>(hidden_epochs) / static_cast<double>(o.epochs.size());
  if (w.vantages > 1 && o.planted_hidden_share < kMinPlantedHidden) {
    throw std::runtime_error(w.name + ": the oracle marks " + planted.to_string() +
                             " hidden in only " + std::to_string(hidden_epochs) + " of " +
                             std::to_string(o.epochs.size()) +
                             " epochs; the workload is mis-sized");
  }
  return o;
}

}  // namespace hhh::e2e
