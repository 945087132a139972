/// \file
/// EpochAligner — the collector daemon's alignment state machine, kept
/// pure (no sockets, no real clock: `now_ns` is always a parameter) so
/// the fault matrix can drive every path deterministically.
///
/// Vantages report windows stamped in *trace time*; the aligner snaps
/// each reported window start onto the collector's epoch grid
/// (multiples of `window_ns`), tolerating bounded clock skew. An epoch
/// *bucket* accumulates one contribution per vantage and closes when it
/// is complete — every expected vantage contributed — or when its grace
/// period (measured in *arrival* time from the bucket's first frame)
/// expires, in which case it closes incomplete: merge what arrived,
/// report who was missing. Closed epochs are remembered, so a straggler
/// frame for a closed epoch classifies as kLate (the collector folds it
/// into the cumulative state directly) and a re-delivered frame as
/// kDuplicate (dropped). That classification is what makes the daemon's
/// results convergent under crash/retry: a reconnecting vantage replays
/// everything and the aligner keeps exactly one copy of each
/// (vantage, epoch) contribution.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "wire/wire.hpp"

namespace hhh::service {

/// Aligner configuration.
struct AlignerParams {
  std::int64_t window_ns = 0;         ///< epoch grid length (required > 0)
  std::int64_t grace_ns = 2'000'000'000;  ///< arrival-time wait for stragglers
  /// Contributions that make an epoch complete. 0 = adaptive: an epoch is
  /// complete once every currently-connected vantage contributed.
  std::size_t expected_vantages = 0;
  /// Max distance between a reported window start and its nearest grid
  /// point. 0 = window_ns / 4.
  std::int64_t skew_tolerance_ns = 0;
};

/// How the aligner classified one offered frame.
enum class Offer : std::uint8_t {
  kAccepted,    ///< buffered into its epoch bucket
  kDuplicate,   ///< this (vantage, epoch) is already buffered — drop
  kLate,        ///< the epoch already closed — fold into cumulative state
  kMisaligned,  ///< window start beyond skew tolerance — protocol error
};

/// Stable lower-case name of an Offer ("accepted", "late", ...).
const char* to_string(Offer offer) noexcept;

/// One vantage's contribution to a ready epoch.
struct EpochContribution {
  std::string vantage;
  std::uint64_t seq = 0;             ///< sender's frame ordinal
  std::vector<std::uint8_t> inner;   ///< one embedded, verified snapshot frame
};

/// One closed epoch, ready to merge.
struct ReadyEpoch {
  std::int64_t index = 0;     ///< epoch ordinal on the grid
  std::int64_t start_ns = 0;  ///< grid-aligned epoch start
  std::int64_t end_ns = 0;    ///< max reported window end
  /// Arrival time of the bucket's first frame (the drain() caller's
  /// clock domain) — close latency is drain time minus this.
  std::int64_t first_seen_ns = 0;
  std::vector<EpochContribution> frames;  ///< what arrived, arrival order
  std::vector<std::string> missing;       ///< up vantages that never contributed
  bool grace_expired = false; ///< closed by timeout, not completeness
};

/// The state machine described in the file header.
class EpochAligner {
 public:
  /// Aligner on the epoch grid `params` describes. Throws
  /// std::invalid_argument for window_ns <= 0.
  explicit EpochAligner(AlignerParams params);

  /// A vantage connected under `name` (adaptive completeness counts it).
  void vantage_up(const std::string& name);
  /// The vantage disconnected; buffered contributions stay.
  void vantage_down(const std::string& name);

  /// Classify and (when kAccepted) buffer one epoch frame. `now_ns` is
  /// arrival time (any monotonic clock); `start_ns`/`end_ns` are the
  /// reported window span in trace time. `inner` must be one whole frame
  /// that wire::parse_frame() validated (parse_epoch does): the buffered
  /// copy is later viewed with wire::view_verified_frame(), without a
  /// second CRC pass.
  Offer offer(const std::string& vantage, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t seq, std::span<const std::uint8_t> inner,
              std::int64_t now_ns);

  /// Close and return every epoch that is complete or past grace as of
  /// `now_ns`, ascending by index. Closed epochs are recorded for
  /// late/duplicate classification.
  std::vector<ReadyEpoch> drain(std::int64_t now_ns);

  /// Earliest arrival-time instant at which some pending bucket's grace
  /// expires — the poll timeout; nullopt when nothing is pending.
  std::optional<std::int64_t> next_deadline_ns() const;

  /// Buffered (not yet drained) contributions from `vantage` — the
  /// per-connection backpressure gauge.
  std::size_t pending_frames(const std::string& vantage) const;
  /// Buckets currently open.
  std::size_t pending_epochs() const noexcept { return buckets_.size(); }
  /// True when `index` already closed.
  bool epoch_closed(std::int64_t index) const;

  /// The epoch grid index `start_ns` snaps to (nearest multiple of the
  /// window length).
  std::int64_t index_of(std::int64_t start_ns) const;

  /// Serialize pending buckets and the closed-epoch record (params are
  /// the owner's to persist; connected-vantage state is not meaningful
  /// across restarts and is not saved).
  void save_state(wire::Writer& w) const;
  /// Restore into a freshly constructed aligner. Buckets restart their
  /// grace period at `now_ns` (arrival clocks do not survive restarts).
  /// Every buffered frame is verified again (wire::parse_frame, CRC
  /// included, and exactly one frame): a checkpoint is read from disk.
  void load_state(wire::Reader& r, std::int64_t now_ns);

 private:
  struct Bucket {
    std::int64_t start_ns = 0;       ///< grid-aligned start
    std::int64_t end_ns = 0;         ///< max reported end
    std::int64_t first_seen_ns = 0;  ///< arrival time of the first frame
    std::vector<EpochContribution> frames;
    bool has(const std::string& vantage) const;
  };

  bool complete(const Bucket& bucket) const;

  AlignerParams params_;
  std::map<std::int64_t, Bucket> buckets_;  ///< pending, keyed by index
  std::set<std::string> up_;
  /// Closed-epoch record: every index < watermark is closed, plus the
  /// sparse indices in `closed_ahead_` (epochs that closed out of order).
  std::int64_t closed_watermark_ = 0;
  std::set<std::int64_t> closed_ahead_;
  void mark_closed(std::int64_t index);
};

}  // namespace hhh::service
