/// \file
/// Memento-style sliding-window heavy hitters (Ben Basat, Einziger,
/// Friedman, Kassner — "Memento: making sliding windows efficient for
/// heavy hitters", CoNEXT 2018 / arXiv 1810.02899): O(1) amortized window
/// maintenance, versus a per-update scan over a ring of per-frame
/// summaries in the windowed Space-Saving of the paper's ref [1].
///
/// Like that design the trailing window W is decomposed into `frames`
/// equal sub-frames, but the decomposition is inverted: instead of one
/// Space-Saving summary *per frame* (m+1 summaries whose expiry is
/// re-checked on every update and whose live entries are re-merged on
/// every query), ONE bounded table of `counters` slots spans the whole
/// window, and each slot keeps a tiny succession-of-frames ring of
/// (frame, delta) contributions. Expiry is lazy and amortized: a slot
/// pops its expired head entries only when it is touched (update, query,
/// eviction), and every popped entry was pushed exactly once — O(1)
/// amortized per update, with no per-update work proportional to the
/// frame count. The global clock advances only on frame *boundaries*
/// (at most once per frame, not once per packet).
///
/// Eviction follows Space-Saving: a min-heap over window counts picks the
/// victim; before trusting the heap top its expired entries are popped
/// and the heap re-settled (each settle iteration retires ring entries,
/// so settling is amortized into the pushes it consumes). The newcomer
/// inherits the victim's *ring*, not a scalar error: the inherited
/// overestimate is tagged with the frames it came from and expires
/// naturally as the window slides — window-correct error inheritance.
///
/// Guarantees (capacity k, m frames, window weight N): window counts are
/// overestimates; every key with window weight > (1/k + 1/m) * N occupies
/// a slot, with the oldest partially-expired frame included conservatively
/// (the epsilon ~ 1/k + 1/m class of ref [1]'s per-frame design, at a
/// fraction of its update cost; arXiv 1810.02899).
///
/// Templated on the key domain (net/key_domain.hpp), so the per-level
/// summaries of core/memento_hhh.hpp serve both IPv4 and IPv6
/// hierarchies.
#pragma once

#include <cstdint>
#include <vector>

#include "net/key_domain.hpp"
#include "util/flat_hash_map.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// Sliding-window heavy-hitter summary with amortized O(1) maintenance
/// (the Memento approach family).
template <typename D>
class BasicMementoSummary {
 public:
  /// The domain's storage key.
  using Key = typename D::MapKey;

  /// Construction-time configuration.
  struct Params {
    Duration window = Duration::seconds(10);  ///< trailing window length W
    std::size_t frames = 8;                   ///< sub-frames per window
    std::size_t counters = 512;               ///< tracked keys (table capacity)

    /// Member-wise equality (merge/load compatibility checks).
    bool operator==(const Params&) const = default;
  };

  /// Summary for a trailing window of `params.window`; throws
  /// std::invalid_argument on a non-positive window, zero frames or zero
  /// counters.
  explicit BasicMementoSummary(const Params& params);

  /// Record `weight` for `key` at `now`; timestamps must be
  /// non-decreasing. Amortized O(1) window maintenance plus the
  /// Space-Saving O(log counters) heap repair.
  void update(const Key& key, double weight, TimePoint now);

  /// Overestimate of the key's weight within (now - window, now]; 0 when
  /// the key holds no slot.
  double estimate(const Key& key, TimePoint now);

  /// Total weight within the live frames (upper bound on window weight:
  /// the partially expired oldest frame is included conservatively).
  double window_total(TimePoint now);

  /// One key whose window estimate crossed a query threshold.
  struct Candidate {
    Key key;          ///< the stream key
    double estimate;  ///< (overestimated) window weight
  };
  /// Keys whose window estimate reaches `threshold`, in slot order.
  std::vector<Candidate> candidates_at_least(double threshold, TimePoint now);

  /// Fold another summary into this one. Both must share Params and be
  /// fed from the same simulated clock: per-slot rings are aligned by
  /// *absolute* frame index and merged entry-wise, frame totals add by
  /// frame, and entries older than the merged window are dropped. When
  /// the union of tracked keys exceeds the capacity only the heaviest
  /// `counters` merged keys survive (anything dropped has merged count
  /// <= every survivor's, the Space-Saving merge invariant). Per-key
  /// overestimates sum, as for Space-Saving merges.
  /// Self-merge doubles every count. Throws std::invalid_argument on a
  /// Params mismatch.
  void merge_from(const BasicMementoSummary& other);

  /// Start of the newest frame this summary has observed — the latest
  /// instant at which a query covers every live frame. TimePoint() when
  /// nothing has been recorded yet.
  TimePoint high_watermark() const noexcept;

  /// Write the full window state (frame totals, slot rings, heap order)
  /// to the wire; the round trip through load_state() is exact.
  void save_state(wire::Writer& w) const;

  /// Restore state written by save_state() into a summary constructed
  /// with the same Params. Throws wire::WireFormatError on a Params
  /// mismatch (kParamsMismatch) or structurally invalid input (kBadValue).
  void load_state(wire::Reader& r);

  /// Number of currently tracked keys (<= counters).
  std::size_t size() const noexcept { return slots_.size(); }

  /// Heap footprint of slots, rings, heap and index (resource
  /// accounting). Bounded by Params alone — independent of traffic.
  std::size_t memory_bytes() const noexcept;

 private:
  /// One (frame, contribution) entry of a slot's succession ring.
  struct FrameDelta {
    std::int64_t frame = 0;  ///< absolute frame index
    double delta = 0.0;      ///< weight recorded in that frame
  };

  /// One tracked key: window count plus a circular ring of live frame
  /// deltas (head/len into the shared deltas_ arena).
  struct Slot {
    Key key{};
    double win_count = 0.0;   ///< sum of live ring deltas (lazily expired)
    std::uint32_t head = 0;   ///< ring start within the slot's arena block
    std::uint32_t len = 0;    ///< live ring entries (<= frames + 1)
    std::uint32_t heap_pos = 0;
  };

  FrameDelta& ring_at(std::uint32_t slot_idx, std::uint32_t i) noexcept;
  const FrameDelta& ring_at(std::uint32_t slot_idx, std::uint32_t i) const noexcept;
  void expire(std::uint32_t slot_idx) noexcept;
  void push_delta(std::uint32_t slot_idx, std::int64_t frame, double weight) noexcept;
  void advance_to(TimePoint now) noexcept;
  std::int64_t frame_index(TimePoint t) const noexcept;
  std::int64_t oldest_live() const noexcept;
  void settle_heap_top() noexcept;
  void rebuild_heap() noexcept;

  void heap_swap(std::size_t a, std::size_t b) noexcept;
  void sift_down(std::size_t pos) noexcept;
  void sift_up(std::size_t pos) noexcept;

  Params params_;
  Duration frame_len_;
  std::uint32_t ring_cap_;              // frames + 1 (max live frames per slot)
  std::int64_t current_frame_ = -1;     // newest frame observed (-1 = none)
  std::vector<std::int64_t> frame_ids_;  // absolute frame per total ring slot
  std::vector<double> frame_totals_;     // weight recorded in that frame
  std::vector<Slot> slots_;
  std::vector<FrameDelta> deltas_;       // ring arena: ring_cap_ per slot
  std::vector<std::uint32_t> heap_;      // min-heap of slot indices by win_count
  FlatHashMap<Key, std::uint32_t, typename D::Hash> index_;
};

/// The IPv4 / 64-bit-keyed instantiation.
using MementoSummary = BasicMementoSummary<V4Domain>;
/// The IPv6 instantiation (128-bit keys).
using MementoSummaryV6 = BasicMementoSummary<V6Domain>;

extern template class BasicMementoSummary<V4Domain>;
extern template class BasicMementoSummary<V6Domain>;

}  // namespace hhh
