/// \file
/// HHH result types shared by every detector.
///
/// The paper's definition (§1): "a prefix p which exceeds a threshold T
/// after excluding the contribution of all its HHH descendants" — i.e. the
/// discounted/conditioned-count definition of Cormode et al. An HhhItem
/// therefore carries both the prefix's *total* volume and its *conditioned*
/// volume (total minus bytes claimed by HHH descendants); the conditioned
/// value is what crossed the threshold.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/hierarchy.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "util/sim_time.hpp"

namespace hhh {

/// One reported HHH: a prefix with its total and conditioned volumes.
struct HhhItem {
  PrefixKey prefix;                    ///< the reported prefix
  std::uint64_t total_bytes = 0;        ///< full subtree volume
  std::uint64_t conditioned_bytes = 0;  ///< volume after HHH-descendant discount

  /// Field-wise equality.
  bool operator==(const HhhItem&) const = default;
};

/// One detector report: the HHHs of one evaluation scope (a window, or a
/// continuous-time query instant), plus the scope's totals.
class HhhSet {
 public:
  /// Empty report (no items, zero totals).
  HhhSet() = default;

  /// Append one reported HHH.
  void add(HhhItem item) { items_.push_back(item); }

  /// All reported items, in extraction order. The exact extraction
  /// (exact_hhh.hpp) fixes that order canonically: levels from leaf to
  /// root, ascending prefix within a level.
  const std::vector<HhhItem>& items() const noexcept { return items_; }
  /// Number of reported items.
  std::size_t size() const noexcept { return items_.size(); }
  /// True when nothing crossed the threshold.
  bool empty() const noexcept { return items_.empty(); }

  /// The prefixes only, sorted and deduplicated — the set the hidden-HHH
  /// and Jaccard analyses operate on.
  std::vector<PrefixKey> prefixes() const;

  /// True iff some item reports exactly prefix `p`.
  bool contains(PrefixKey p) const noexcept;

  /// Items restricted to one hierarchy level (by prefix length).
  std::vector<HhhItem> at_length(unsigned len) const;

  /// Multi-line human-readable rendering (tests, examples).
  std::string to_string() const;

  std::uint64_t total_bytes = 0;      ///< scope volume (threshold denominator)
  std::uint64_t threshold_bytes = 0;  ///< the absolute threshold applied

 private:
  std::vector<HhhItem> items_;
};

/// The absolute threshold of a relative one over a disjoint scope:
/// T = max(1, ceil(phi * total_bytes)). The exact extraction and every
/// disjoint-window sketch engine apply this one rule.
inline std::uint64_t relative_threshold(double phi, std::uint64_t total_bytes) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(total_bytes))));
}

/// The output procedure every sketch summary shares: HSS's bottom-up
/// conditioned-count selection (arXiv 1102.5540), which RHHH reuses over
/// scaled estimates (arXiv 1707.06778). Each summary enumerates its own
/// candidates with its own full-volume estimate and offers them here; a
/// candidate is reported when its estimate, minus the estimates of its
/// closest reported HHH descendants, reaches the threshold.
///
/// Offer candidates most-specific level first (the order `Hierarchy`
/// lists its levels in), each prefix at most once. Every reported prefix
/// is then at least as long as the candidate, so a reported descendant's
/// closest reported ancestor is the candidate exactly when it has no
/// reported ancestor at all: the discount is the sum over `tops_`, the
/// reported HHHs no other reported HHH contains, taken in report order.
///
/// The threshold is a byte volume >= 1. Disjoint-window summaries pass
/// `relative_threshold`; the windowed detectors (Memento, TDBF) pass the
/// unrounded max(phi * W, 1) of their sliding or decayed volume W.
class ConditionedSelection {
 public:
  /// Select into `out` (items are appended in report order) at
  /// `threshold` bytes.
  ConditionedSelection(HhhSet& out, double threshold) : out_(out), threshold_(threshold) {}

  /// Offer `prefix` with full (subtree) volume estimate `full`; report it
  /// when its conditioned volume reaches the threshold. Inline: summaries
  /// offer every candidate they hold, and few are reported.
  void offer(PrefixKey prefix, double full) {
    // A reported HHH's full volume is >= its conditioned volume >= the
    // threshold >= 1, so every discount is positive: a candidate whose
    // full volume is short of the threshold can never reach it.
    if (full < threshold_) return;
    double conditioned = full;
    for (const Top& top : tops_) {
      if (prefix.is_ancestor_of(top.prefix)) conditioned -= top.full;
    }
    if (conditioned >= threshold_) report(prefix, full, conditioned);
  }

 private:
  struct Top {
    PrefixKey prefix;
    double full;
  };

  void report(PrefixKey prefix, double full, double conditioned);

  HhhSet& out_;
  double threshold_;
  std::vector<Top> tops_;  ///< reported HHHs with no reported ancestor, in report order
};

/// Sorted-unique union of prefix sets (accumulator for per-window reports).
class PrefixUnion {
 public:
  /// Accumulate a batch of prefixes (duplicates welcome).
  void add(const std::vector<PrefixKey>& prefixes);
  /// Accumulate one prefix.
  void add(PrefixKey p);

  /// Number of distinct prefixes seen.
  std::size_t size() const;

  /// Sorted distinct prefixes.
  const std::vector<PrefixKey>& values() const;

  /// True iff `p` has been added.
  bool contains(PrefixKey p) const;

 private:
  void normalize() const;

  mutable std::vector<PrefixKey> values_;
  mutable bool dirty_ = false;
};

/// a \ b over sorted-unique prefix vectors.
std::vector<PrefixKey> prefix_difference(const std::vector<PrefixKey>& a,
                                          const std::vector<PrefixKey>& b);

/// One closed window's result: a disjoint window (pipeline disjoint
/// policy) or a sliding step (the sliding policy over ExactSlidingSummary
/// or a Memento detector).
struct WindowReport {
  std::size_t index = 0;  ///< window ordinal (disjoint) / step ordinal (sliding)
  TimePoint start;        ///< window covers [start, end)
  TimePoint end;          ///< exclusive window end
  HhhSet hhhs;            ///< the window's HHH set
};

}  // namespace hhh
