// The serialize→deserialize→report conformance axis.
//
// Every engine in the conformance registry automatically inherits this
// sweep (tests/core_engine_snapshot_test.cpp instantiates it over
// snapshot_cases()) — registering an engine is all it takes; there is no
// per-engine serialization boilerplate to write or forget. The Memento
// sliding detectors run the same sweep as two more cases: they share the
// HhhSummary interface but stay out of the engine registry, whose names
// key bench/BASELINE_accuracy.json.
//
// The contract enforced, per seed, with every report taken at the
// summary's watermark():
//  1. save_engine(s) → load_engine_into(fresh summary) yields a
//     byte-identical report() at several thresholds, an equal total()
//     and an equal watermark();
//  2. the restored summary stays behaviourally identical under further
//     ingestion (RNG state travels with the snapshot);
//  3. for standalone-constructible kinds, load_engine() (which rebuilds
//     the summary from the payload's own params) agrees too;
//  4. wire-merging two snapshots equals in-process merge_from — the
//     collector invariant.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/summary.hpp"

namespace hhh::harness {

/// One summary under the snapshot axis.
struct SummaryCase {
  std::string name;  ///< gtest parameter suffix — [A-Za-z0-9_] only
  /// Deterministic factory: fixed seeds, fixed sizes.
  std::function<std::unique_ptr<HhhSummary>()> make;
  /// Fraction of IPv6 packets in the workload (0 = pure v4, 1 = pure v6).
  double v6_fraction = 0.0;
};

/// Every conformance-registry engine, then "memento" and "memento_v6".
const std::vector<SummaryCase>& snapshot_cases();

/// Run the full round-trip sweep (invariants 1–3) for one summary.
void run_snapshot_roundtrip_case(const SummaryCase& summary_case);

/// Run the collector-equivalence check (invariant 4) for one summary:
/// wire round trip must not change what merge_from produces. Skips
/// engines that are not mergeable().
void run_snapshot_merge_case(const SummaryCase& summary_case);

}  // namespace hhh::harness
