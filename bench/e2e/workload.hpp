/// \file
/// The bench's workloads, the traffic each one replays, and the oracle
/// every revealed epoch is checked against.
///
/// Traffic is generated once per invocation, before any timing: one
/// CAIDA-like synthetic trace per vantage plus a planted distributed
/// source (a DdosEpisode inside 203.0.113.0/24) that carries half the
/// absolute threshold T through each vantage — 1.5 T fleet-wide across
/// three vantages, so it is hidden from every vantage and revealed only by
/// the merge. A pass replays the trace `loops` times; loop k is the same
/// packets shifted by k trace lengths, so the oracle is computed for one
/// loop's epochs and reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/hierarchy.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace hhh::e2e {

/// The engine every vantage of a workload runs, composed the way
/// `hhh-live --engine=... [--shards=N]` composes it.
enum class EngineKind : std::uint8_t {
  kExact,         ///< exact, v4 byte hierarchy
  kExactV6,       ///< exact_v6, the 17-level v6 byte hierarchy
  kRhhh,          ///< rhhh, 512 counters per level, seed 42 + vantage
  kShardedExact,  ///< exact behind route_shards with 2 shards
};

/// One workload: fleet shape, engine, traffic rate and pass length.
struct Workload {
  std::string name;
  std::size_t vantages = 3;
  EngineKind engine = EngineKind::kExact;
  double background_pps = 100'000.0;  ///< per vantage, before bursts
  double window_s = 0.5;              ///< disjoint window = collector epoch
  std::size_t epochs_per_loop = 40;   ///< trace length = epochs x window
  std::size_t loops = 1;              ///< trace replays per pass
  double speed = 0.0;                 ///< PaceConfig::speed; 0 = unpaced
  bool checkpoint = false;            ///< collector checkpoint_path set
  bool v6 = false;                    ///< trace embedded into v6

  /// True when the collector's answer must equal the oracle exactly.
  bool exact() const noexcept { return engine != EngineKind::kRhhh; }
  /// The hierarchy the workload's engines (and the oracle) use.
  Hierarchy hierarchy() const;
};

/// The four workloads, in run order.
const std::vector<Workload>& workloads();
/// Workload by name; nullptr when unknown.
const Workload* find_workload(std::string_view name);

/// The planted distributed source and its v6 image under v6_embed.
PrefixKey planted_prefix(bool v6);

/// The expected collector answer for one epoch.
struct OracleEpoch {
  std::vector<PrefixKey> merged;  ///< every group's merged HHH prefixes
  std::vector<PrefixKey> hidden;  ///< merged minus every vantage's local set
};

/// One vantage's packets in one epoch, with the hierarchy it measures.
struct VantageSlice {
  Hierarchy hierarchy;
  std::span<const PacketRecord> packets;
};

/// The oracle for one epoch, independent of MergeLedger: per address
/// family, a fresh exact engine ingests the union of the vantages'
/// packets with add_batch only; its set at T, minus the union of each
/// vantage's exact local set at T, is the hidden set.
OracleEpoch oracle_epoch(std::span<const VantageSlice> slices, double threshold_bytes);

/// Everything a workload replays, generated once per invocation.
struct Traffic {
  std::vector<std::vector<PacketRecord>> vantages;  ///< one loop per vantage
  Duration loop_span;                 ///< trace length (a whole number of windows)
  std::size_t epochs_per_loop = 0;
  double threshold_bytes = 0.0;       ///< T, per window, absolute
  double generate_s = 0.0;            ///< wall time of generation
};

/// Generate `w`'s traffic from `seed`, with at most hardware_concurrency
/// threads. `scale` < 1 shrinks the rate and the trace length together
/// (the smoke run).
Traffic make_traffic(const Workload& w, std::uint64_t seed, double scale);

/// The expected answer of every epoch of one loop.
struct Oracle {
  std::vector<OracleEpoch> epochs;
  double planted_hidden_share = 0.0;  ///< epochs with the planted prefix hidden
  double seconds = 0.0;               ///< wall time of the computation
};

/// The oracle for `traffic`, with at most hardware_concurrency threads.
/// Throws std::runtime_error when a fleet's oracle marks the planted
/// prefix hidden in fewer than 95% of epochs (the workload is mis-sized).
Oracle make_oracle(const Workload& w, const Traffic& traffic);

}  // namespace hhh::e2e
