/// \file
/// HhhEngine — the pluggable per-window HHH computation.
///
/// The disjoint-window driver (Fig. 1a) is agnostic to *how* HHHs are
/// computed inside a window: exactly (ground truth), or with a streaming
/// sketch (RHHH, full-ancestry) as a programmable data plane would. This
/// interface decouples the window model from the engine so the §3 benches
/// can swap engines while keeping the windowing identical.
///
/// Engines are reset at window boundaries by the driver — exactly the
/// "reset the data structure at the end of each time window" practice the
/// paper examines.
///
/// An engine ingests through HhhSummary::add_batch() only; the per-packet
/// HhhSummary::add() is a batch of one, so no engine keeps a second
/// ingestion path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/hhh_types.hpp"
#include "core/summary.hpp"
#include "net/packet.hpp"

/// \namespace hhh
/// \brief Hierarchical heavy-hitter measurement library: engines, window
/// models, sketches, trace generation and the paper's analyses.
namespace hhh {

/// The pluggable per-window HHH computation behind every window model.
///
/// Implementations range from the exact ground truth (ExactEngine) to the
/// streaming sketches a programmable data plane would run (RhhhEngine,
/// AncestryHhhEngine, UnivmonHhhEngine) and the sharded parallel front-end
/// (ShardedHhhEngine). The disjoint-window driver resets the engine at
/// every window boundary and extracts at window close; engines are driven
/// by exactly one caller thread at a time.
///
/// As an HhhSummary an engine ignores the query instant: report() is
/// extract() and total() is total_bytes(). merge_from() error bounds per
/// engine:
///  * exact — lossless: merge(A, B) followed by extract() is
///    byte-identical to one engine ingesting A's and B's streams;
///  * rhhh / hss — per-level Space-Saving summaries are merged with the
///    mergeable-summaries bound (Agarwal et al., PODS'12): a summary of
///    capacity k over weight N overestimates by at most N/k, and merging
///    sums the bounds, so the merged overestimate is at most
///    (N_self + N_other)/k per level (scaled by H in sampled mode);
///  * engines without merge support (ancestry, univmon, sharded) keep
///    HhhSummary's default, which throws std::logic_error.
class HhhEngine : public HhhSummary {
 public:
  /// The address family the engine counts. Packets of the other family
  /// are ignored — neither counted in total_bytes() nor fed to the
  /// summaries — so a dual-stack pipeline can fan one mixed stream to one
  /// engine per family (or route packets itself, which is cheaper).
  virtual AddressFamily family() const = 0;

  /// HHHs of the traffic added since the last reset, at relative
  /// threshold `phi` (T = ceil(phi * total)).
  virtual HhhSet extract(double phi) const = 0;

  /// extract(phi); an engine's scope does not depend on the instant.
  HhhSet report(TimePoint, double phi) override { return extract(phi); }

  /// total_bytes(); an engine's scope does not depend on the instant.
  double total(TimePoint) final { return static_cast<double>(total_bytes()); }

  /// Forget everything (window boundary).
  void reset() override = 0;

  /// Bytes accounted since the last reset (exact in every engine).
  virtual std::uint64_t total_bytes() const = 0;

  /// True when merge_from() is supported by this engine type. Mergeable
  /// engines are the building block of sharded ingestion: N replicas each
  /// ingest a hash-partition of the stream and are folded together at
  /// extraction time.
  virtual bool mergeable() const { return false; }
};

/// The exact engine: LevelAggregates + extract_hhh.
std::unique_ptr<HhhEngine> make_exact_engine(const Hierarchy& hierarchy);

}  // namespace hhh
