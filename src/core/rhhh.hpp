/// \file
/// Randomized HHH (Ben Basat, Einziger, Friedman, Luizelli, Waisbard —
/// SIGCOMM 2017): the state-of-the-art data-plane HHH sketch the
/// calibration notes name as prior work, used here as the practical
/// windowed engine in the §3 comparisons.
///
/// Update: choose one hierarchy level uniformly at random and feed the
/// packet's prefix at that level into the level's Space-Saving instance —
/// O(1) per packet regardless of hierarchy depth. Estimates are scaled by
/// the number of levels H (each level sees ~1/H of the stream's weight).
///
/// Output: bottom-up conditioned-count extraction. A prefix's conditioned
/// estimate subtracts the full (scaled) estimates of already-selected HHH
/// descendants whose *closest* selected ancestor is the prefix itself —
/// the same discounting as the exact definition, on estimated volumes
/// (the practical Z=0 variant of the paper's confidence-interval output).
///
/// The `update_all_levels` flag turns the sampler off and feeds every
/// level on every packet: that is the classic O(H) hierarchical
/// Space-Saving (HSS), kept as the accuracy-ceiling ablation for RHHH.
///
/// RHHH treats the hierarchy as a parameter, not a constant — exactly what
/// makes it family-generic: `RhhhEngine` (IPv4) and `RhhhV6Engine` (IPv6,
/// 17- or 33-level hierarchies) are the two instantiations of one
/// template over the key domain.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "sketch/space_saving.hpp"
#include "util/random.hpp"

namespace hhh {

/// Construction-time configuration shared by both family instantiations.
struct RhhhParams {
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
  std::size_t counters_per_level = 512;  ///< Space-Saving capacity per level
  bool update_all_levels = false;        ///< true = deterministic HSS ablation
  std::uint64_t seed = 0x8111'0001;      ///< level-sampler RNG seed
};

/// Randomized HHH engine (RHHH), with a deterministic HSS ablation mode.
template <typename D>
class BasicRhhhEngine final : public HhhEngine {
 public:
  /// Construction-time configuration (shared across families).
  using Params = RhhhParams;

  /// Engine with one Space-Saving summary per hierarchy level. The
  /// hierarchy family must match the domain's; throws
  /// std::invalid_argument otherwise.
  explicit BasicRhhhEngine(const Params& params);

  /// O(1) per packet: sample one level uniformly (LevelDraws), update its
  /// summary (RHHH); or O(H) updating every level in HSS mode, in
  /// level-major order.
  void add_batch(std::span<const PacketRecord> packets) override;
  /// The domain's family.
  AddressFamily family() const override { return D::kFamily; }
  /// Bottom-up conditioned-count extraction over scaled estimates.
  HhhSet extract(double phi) const override;
  /// Clear every summary; the RNG sequence deliberately continues.
  void reset() override;
  /// Exact byte total since the last reset (tracked outside the sketches).
  std::uint64_t total_bytes() const override { return total_bytes_; }
  /// Sum of the per-level summaries' footprints.
  std::size_t memory_bytes() const override;
  /// "rhhh" / "hss", with a "_v6" suffix for the IPv6 instantiation.
  std::string name() const override;

  /// Always true: per-level Space-Saving summaries are mergeable.
  bool mergeable() const override { return true; }
  /// Merge another engine's per-level summaries into this one
  /// (SpaceSaving::merge_from per level; totals add exactly).
  ///
  /// Error bound: with capacity k per level, level-l estimates of the
  /// merged engine overestimate the combined (sampled) level weight by at
  /// most (N1_l + N2_l)/k, where Ni_l is the weight engine i fed level l —
  /// the same epsilon-degradation as feeding one engine both streams, so
  /// sharded RHHH keeps RHHH's accuracy class. Requires identical
  /// hierarchy and mode; throws std::invalid_argument otherwise.
  void merge_from(const HhhSummary& other) override;

  /// Scaled volume estimate of `prefix` (must be at a hierarchy level).
  double estimate(PrefixKey prefix) const;

  /// Always true: per-level summaries and the sampler RNG serialize.
  bool serializable() const override { return true; }
  /// Write params, RNG state, totals and every level summary. Because the
  /// sampler state travels, a restored engine draws the same levels for
  /// any subsequent stream — full behavioural equivalence, not just an
  /// equal extract().
  void save_state(wire::Writer& w) const override;
  /// Restore state; throws wire::WireFormatError(kParamsMismatch) when
  /// the snapshot's params differ from this engine's.
  void load_state(wire::Reader& r) override;

 private:
  friend std::unique_ptr<HhhEngine> deserialize_rhhh_engine(wire::Reader& r);

  void read_state(wire::Reader& r);

  Params params_;
  Rng rng_;
  std::vector<BasicSpaceSaving<D>> levels_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t updates_ = 0;
};

/// The IPv4 engine (names "rhhh" / "hss").
using RhhhEngine = BasicRhhhEngine<V4Domain>;
/// The IPv6 engine (names "rhhh_v6" / "hss_v6").
using RhhhV6Engine = BasicRhhhEngine<V6Domain>;

extern template class BasicRhhhEngine<V4Domain>;
extern template class BasicRhhhEngine<V6Domain>;

/// Construct an RHHH/HSS engine directly from a save_state() payload:
/// reads the params header and picks the family instantiation.
std::unique_ptr<HhhEngine> deserialize_rhhh_engine(wire::Reader& r);

}  // namespace hhh
