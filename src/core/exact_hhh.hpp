/// \file
/// Exact HHH extraction — the ground truth of every experiment.
///
/// Implements the paper's definition (discounted/conditioned counts,
/// Cormode et al.) bottom-up over LevelAggregates:
///
///     residual(leaf)   = bytes(leaf)
///     residual(p)      = sum over children c of p at the level below of
///                        (c is HHH ? 0 : residual(c))
///     p is an HHH  <=>  residual(p) >= T
///
/// residual(p) is exactly "p's volume after excluding the contribution of
/// all its HHH descendants" because an HHH child absorbs its whole subtree
/// (its own residual plus everything deeper already discounted).
///
/// Only the leaf level is stored, so every upper prefix's total and
/// residual are derived here from the leaves in address order
/// (LevelAggregates::sorted_leaves: the aggregates' run when it is
/// current, otherwise one radix sort), where each prefix is a contiguous
/// run of leaves; one pass settles each prefix as its run ends —
/// O(distinct prefixes).
///
/// Report order is canonical: levels from leaf to root, ascending prefix
/// within a level. Equal counters therefore report equal item sequences,
/// whatever capacity or insertion history their counter map carries.
///
/// All extraction entry points are templates over the key domain (IPv4 /
/// IPv6 instantiations are explicit in exact_hhh.cpp); the packet-level
/// convenience exact_hhh_of dispatches on the hierarchy's family at
/// runtime.
#pragma once

#include <cstdint>
#include <span>

#include "core/hhh_types.hpp"
#include "core/level_aggregates.hpp"
#include "net/packet.hpp"

namespace hhh {

/// Extract the HHH set at an absolute byte threshold (T >= 1 enforced:
/// a zero threshold would mark every live prefix).
template <typename D>
HhhSet extract_hhh(const BasicLevelAggregates<D>& agg, std::uint64_t threshold_bytes);

/// Extract at a relative threshold: T = max(1, ceil(phi * total_bytes)).
/// This is the paper's setting ("flows which exceed 1%, 5%, 10% of the
/// total bytes measured in a specific time-window").
template <typename D>
HhhSet extract_hhh_relative(const BasicLevelAggregates<D>& agg, double phi);

/// One-shot convenience: aggregate `packets` and extract at fraction `phi`.
/// Dispatches on hierarchy.family(); packets of the other family are
/// ignored by the aggregation (their bytes never enter the counters).
HhhSet exact_hhh_of(std::span<const PacketRecord> packets, const Hierarchy& hierarchy,
                    double phi);

/// Multi-threshold extraction in ONE bottom-up pass: returns one HhhSet per
/// threshold (same order). Residuals are tracked per threshold because the
/// HHH-descendant discount depends on which children qualified at that
/// threshold. The φ-sweep benches (Fig. 2) rely on this being ~K× cheaper
/// than K separate extractions. At most 8 thresholds per call.
template <typename D>
std::vector<HhhSet> extract_hhh_multi(const BasicLevelAggregates<D>& agg,
                                      std::span<const std::uint64_t> thresholds);

/// Relative-threshold variant of the multi-extraction.
template <typename D>
std::vector<HhhSet> extract_hhh_multi_relative(const BasicLevelAggregates<D>& agg,
                                               std::span<const double> phis);

}  // namespace hhh
