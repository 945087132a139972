/// \file
/// TimeDecayingHhhDetector — the windowless, continuous-time HHH detector
/// the paper's §3 calls for, built on the Time-decaying Bloom Filter
/// extension (sketch/tdbf.hpp).
///
/// Per hierarchy level the detector keeps:
///  * a DecayingCountingBloomFilter: collision-bounded decayed-volume
///    estimates for *any* prefix at that level;
///  * a decayed Space-Saving summary: enumerable candidate prefixes (a
///    Bloom structure cannot be enumerated), with counts decayed by the
///    same half-life via amortized rescaling.
///
/// There are no windows and no resets: a query at any instant t returns the
/// HHHs of the exponentially weighted traffic (half-life tau), with
/// per-candidate estimates refined as min(space-saving, TDBF) — both are
/// overestimates of the true decayed volume, so the min is the tighter
/// overestimate. Extraction offers those estimates to the conditioned-count
/// selection every sketch summary shares (`ConditionedSelection`,
/// core/hhh_types.hpp), against the unrounded threshold max(phi * total, 1).
///
/// Window equivalence: a steady rate observed through a disjoint window W
/// accumulates r*W; through exponential decay it accumulates r*tau_eff with
/// tau_eff = half_life/ln 2. Use half_life = W * ln 2 (`for_window`) to
/// approximate "the last W seconds" without a boundary — the equivalence
/// bench/ablation_decay sweeps.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "core/summary.hpp"
#include "net/hierarchy.hpp"
#include "net/packet.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/tdbf.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// Windowless continuous-time HHH detector over decaying structures. As
/// an HhhSummary it never resets (state decays), does not merge, and is
/// not serializable as a snapshot frame: save_state()/load_state() are
/// its in-place checkpoint only.
class TimeDecayingHhhDetector final : public HhhSummary {
 public:
  /// Construction-time configuration.
  struct Params {
    Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
    Duration half_life = Duration::from_seconds(10.0 * 0.6931);  ///< decay tau (~ W=10 s)
    std::size_t cells_per_level = 1 << 15;     ///< TDBF cells per level
    std::size_t hashes = 4;                    ///< TDBF hash count
    std::size_t candidates_per_level = 256;    ///< Space-Saving capacity per level
    bool conservative = true;                  ///< conservative TDBF updates
    std::uint64_t seed = 0x7DBF'4444;          ///< hash-family seed
  };

  /// Detector over `params` (one TDBF + candidate summary per level).
  explicit TimeDecayingHhhDetector(const Params& params);

  /// Convenience: parameters whose decayed mass matches a window of `w`.
  static Params for_window(Duration w);

  /// Account a run of packets; timestamps must be non-decreasing.
  void add_batch(std::span<const PacketRecord> run) override;

  /// Continuous-time HHH query at `now` with relative threshold `phi`
  /// (T = phi * decayed total). Any instant is valid — this is the whole
  /// point of the windowless design.
  HhhSet report(TimePoint now, double phi) override;

  /// Decayed traffic total as of `now` (bytes-equivalent).
  double total(TimePoint now) override;

  /// The configured half-life, in seconds.
  double half_life_seconds() const noexcept;
  /// Footprint of the filters and candidate summaries.
  std::size_t memory_bytes() const noexcept override;

  /// "tdbf".
  std::string name() const override { return "tdbf"; }

  /// Write the detector's full continuous-time state (per-level filters,
  /// candidate summaries, rescale cursor) to the wire — the windowless
  /// monitor's checkpoint, since there is no window boundary to restart
  /// cleanly at.
  void save_state(wire::Writer& w) const override;

  /// Restore a checkpoint written by save_state() into a detector
  /// constructed with the same Params; queries then continue exactly
  /// where the checkpointed monitor left off. Throws
  /// wire::WireFormatError(kParamsMismatch) on a configuration mismatch.
  void load_state(wire::Reader& r) override;

 private:
  /// Decay all Space-Saving counts to `now` (amortized; called on ingest).
  void rescale(TimePoint now);

  Params params_;
  std::vector<DecayingCountingBloomFilter> filters_;  // one per level
  std::vector<SpaceSaving> candidates_;               // one per level
  TimePoint last_rescale_;
  Duration rescale_interval_;
  double inv_half_life_ns_ = 0.0;
};

}  // namespace hhh
