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
