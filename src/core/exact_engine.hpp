/// \file
/// ExactEngine — the ground-truth HhhEngine over LevelAggregates.
///
/// Ingest pays O(1) per packet: one leaf counter, whatever the hierarchy's
/// depth. The extraction derives the upper levels once per report — the
/// O(1) update direction RHHH takes, without RHHH's sampling error.
///
/// Templated on the key domain: `ExactEngine` (IPv4, name "exact") and
/// `ExactV6Engine` (IPv6, name "exact_v6") are the two instantiations;
/// make_exact_engine() picks the right one from the hierarchy's family.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/engine.hpp"
#include "core/level_aggregates.hpp"

namespace hhh {

/// Ground-truth HhhEngine: exact leaf counters + exact extraction.
template <typename D>
class BasicExactEngine final : public HhhEngine {
 public:
  /// Exact engine over `hierarchy` (counters at its leaf level). The
  /// hierarchy family must match the domain's.
  explicit BasicExactEngine(const Hierarchy& hierarchy);

  /// Pre-hashed leaf pass (LevelAggregates::add_batch): one leaf counter
  /// increment per packet. Addition commutes, so the state does not
  /// depend on how the stream is cut into batches.
  void add_batch(std::span<const PacketRecord> packets) override;
  /// The domain's family.
  AddressFamily family() const override { return D::kFamily; }
  /// Exact conditioned-count HHH extraction over the leaf counters.
  HhhSet extract(double phi) const override;
  /// extract(phi) after LevelAggregates::freeze(): the window's report
  /// sorts the leaves once, and the snapshot encode that follows it walks
  /// the same run.
  HhhSet report(TimePoint now, double phi) override;
  /// Zero all counters (window boundary).
  void reset() override;
  /// Exact byte total since the last reset.
  std::uint64_t total_bytes() const override { return agg_.total_bytes(); }
  /// Footprint of the leaf counter map.
  std::size_t memory_bytes() const override;
  /// "exact" (IPv4) / "exact_v6" (IPv6).
  std::string name() const override;

  /// Always true: counter addition commutes, so merging is lossless.
  bool mergeable() const override { return true; }
  /// Lossless merge: adds `other`'s counters into this engine (a linear
  /// merge of sorted runs, see LevelAggregates::merge). Requires `other`
  /// to be an exact engine over the same hierarchy (and therefore the
  /// same family).
  void merge_from(const HhhSummary& other) override;

  /// Always true: the counters serialize losslessly.
  bool serializable() const override { return true; }
  /// Write the hierarchy + leaf counters (LevelAggregates::save_state).
  void save_state(wire::Writer& w) const override;
  /// Restore counters; throws wire::WireFormatError on hierarchy mismatch.
  void load_state(wire::Reader& r) override;

  /// The underlying counters (read-only; tests and analyses).
  const BasicLevelAggregates<D>& aggregates() const noexcept { return agg_; }

 private:
  friend std::unique_ptr<HhhEngine> deserialize_exact_engine(wire::Reader& r);

  BasicLevelAggregates<D> agg_;
};

/// The IPv4 ground-truth engine (name "exact").
using ExactEngine = BasicExactEngine<V4Domain>;
/// The IPv6 ground-truth engine (name "exact_v6").
using ExactV6Engine = BasicExactEngine<V6Domain>;

extern template class BasicExactEngine<V4Domain>;
extern template class BasicExactEngine<V6Domain>;

/// Construct an exact engine directly from a save_state() payload: reads
/// the hierarchy header and picks the family instantiation.
std::unique_ptr<HhhEngine> deserialize_exact_engine(wire::Reader& r);

}  // namespace hhh
