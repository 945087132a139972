/// \file
/// HhhSummary — the one interface every HHH measurement state implements.
///
/// The paper's reveal is the same whatever a vantage runs: hidden HHHs are
/// the merged network-wide set minus each vantage's local set. A vantage
/// may run a resettable disjoint-window engine (HhhEngine: exact, RHHH,
/// ancestry, UnivMon, sharded), a Memento sliding-window detector, or the
/// windowless TDBF detector. All of them ingest same-window runs of
/// packets, answer a report at an instant, and name themselves; the
/// mergeable, serializable ones also fold peers and travel as snapshot
/// frames (wire/snapshot.hpp). The pipeline stage, the collector's merge
/// ledger and the frame ring hold this type and never branch on the
/// family.
///
/// Ingestion has one entry point, add_batch(). add() is a non-virtual
/// batch of one for per-packet callers, so no summary keeps a second
/// per-packet path that could drift from its batch path.
///
/// Time semantics: a disjoint-window engine ignores `now` (its scope is
/// "everything since the last reset"); a sliding or decaying summary
/// answers for the trailing window or decayed mass as of `now`.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "core/hhh_types.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// A mergeable, serializable HHH measurement state (see file header).
/// Summaries are driven by one caller thread at a time.
class HhhSummary {
 public:
  /// Summaries are owned polymorphically by stages, ledgers and rings.
  virtual ~HhhSummary() = default;

  /// Account a timestamp-ordered run of packets. Packets whose address
  /// family differs from the summary's hierarchy are ignored.
  virtual void add_batch(std::span<const PacketRecord> run) = 0;

  /// Account one packet: add_batch() over a run of one.
  void add(const PacketRecord& packet) { add_batch({&packet, 1}); }

  /// HHHs at relative threshold `phi` (T = phi x total(now)) as of
  /// `now`. Non-const: sliding summaries settle expiry on read.
  virtual HhhSet report(TimePoint now, double phi) = 0;

  /// Bytes in scope as of `now`: exact since the last reset for engines,
  /// the exact trailing-window volume for Memento, the decayed volume for
  /// TDBF. Drives absolute-threshold mode.
  virtual double total(TimePoint now) = 0;

  /// The natural query instant of a restored or merged summary. For a
  /// sliding summary it is the start of the newest frame it observed, and
  /// a merge advances it to the later of the two sides, so a merged
  /// summary answers for the newest instant any input reached. Defaults
  /// to TimePoint() (engines ignore the instant).
  virtual TimePoint watermark() const noexcept { return TimePoint(); }

  /// Forget everything (a disjoint window boundary). Defaults to a no-op:
  /// state that expires by time needs no reset.
  virtual void reset() {}

  /// True when the summary travels as a snapshot frame
  /// (wire::save_engine / wire::load_engine). Defaults to false.
  virtual bool serializable() const { return false; }

  /// Write the construction parameters followed by the full state, RNG
  /// state included, so that `load_state(save_state(s))` into an
  /// identically configured summary reports byte-identically and keeps
  /// doing so under further ingestion. The default throws
  /// std::logic_error.
  virtual void save_state(wire::Writer& w) const;

  /// Restore state written by save_state() into a summary constructed
  /// with the same parameters; a mismatch throws wire::WireFormatError
  /// (kParamsMismatch), corrupt input kTruncated/kBadValue. The default
  /// throws std::logic_error.
  virtual void load_state(wire::Reader& r);

  /// Fold another summary's state into this one, as if this summary had
  /// also ingested everything `other` did (error bounds per
  /// implementation: lossless for exact, summed per level for sketches).
  /// Throws std::invalid_argument for an incompatible peer (another
  /// family or configuration); the default throws std::logic_error (not
  /// mergeable).
  virtual void merge_from(const HhhSummary& other);

  /// Resident footprint of the state, in bytes.
  virtual std::size_t memory_bytes() const = 0;

  /// Stable identifier ("exact", "rhhh", "memento", "tdbf", ...): the
  /// collector's compatibility key and the bench/CLI name.
  virtual std::string name() const = 0;
};

}  // namespace hhh
