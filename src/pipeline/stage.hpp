/// \file
/// MeasurementStage — the pipeline's view of "the thing that measures".
///
/// A stage ingests timestamp-ordered same-window runs of packets and
/// answers the window policy's report events. The split of
/// responsibilities with WindowPolicy is exact:
///
///  * the policy decides *when* a report is due and whether closing it
///    resets the state (disjoint) or not (sliding/decaying);
///  * the stage decides *how* the report is computed: HhhSummary::report
///    at the event's end — extract() on a resettable HhhEngine, a
///    trailing-window query on a Memento detector or on the exact sliding
///    summary, a continuous-time query on decaying TDBF state.
///
/// Stage + policy pairings mirror the paper's models: engine x disjoint
/// (Fig. 1a), memento/exact sliding x sliding (Fig. 1b), tdbf x query
/// cadence (§3's windowless monitor). Every HhhSummary shares one
/// adapter, make_engine_stage().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "core/summary.hpp"
#include "net/packet.hpp"
#include "pipeline/window_policy.hpp"

namespace hhh::pipeline {

/// The measurement end of a pipeline: ingests packets, answers report
/// events, optionally snapshots its state to the wire.
class MeasurementStage {
 public:
  /// Stages are owned polymorphically by the pipeline.
  virtual ~MeasurementStage() = default;

  /// Account a timestamp-ordered run of packets that all belong to the
  /// currently open window (the pipeline splits batches at boundaries).
  virtual void ingest(std::span<const PacketRecord> run) = 0;

  /// The HHH report for `event` at relative threshold `phi`. Must not
  /// destroy state — the pipeline snapshots (if requested) and then
  /// resets (if the policy says so) after this call.
  virtual HhhSet report(const WindowEvent& event, double phi) = 0;

  /// Forget everything (called at window close iff the policy resets).
  /// Stages whose state expires by time make this a no-op.
  virtual void reset_state() {}

  /// True when snapshot() works.
  virtual bool serializable() const { return false; }

  /// The stage's full state as one self-delimiting snapshot frame
  /// (wire/snapshot.hpp) — what a vantage ships to hhh-collector at each
  /// window close. Throws std::logic_error when not serializable.
  virtual std::vector<std::uint8_t> snapshot() const;

  /// Bytes accounted in the currently open scope (exact for engine
  /// stages; estimates for sketch-backed ones). Drives absolute-threshold
  /// mode (phi = T / total).
  virtual std::uint64_t total_bytes() const = 0;

  /// Resident footprint of the measurement state.
  virtual std::size_t memory_bytes() const = 0;

  /// Stable stage identifier ("engine:exact", "memento", "tdbf", ...).
  virtual std::string name() const = 0;
};

/// Wrap any HhhSummary as a stage: ingest = add_batch (one virtual call
/// per run), report = report(event.end, phi), reset_state = reset(),
/// snapshot = wire::save_engine, total_bytes = total() at the timestamp
/// of the last ingested packet. Engines (exact, rhhh, ancestry, univmon,
/// sharded, ...) pair with the disjoint policy. Memento detectors pair
/// with the sliding policy (step <= window; step should divide the frame
/// length W/frames so report boundaries align with frame boundaries);
/// their reset() is a no-op. The exact sliding summary pairs with a
/// sliding policy of its own window and step. The TDBF detector pairs
/// with the query-cadence policy. Neither is serializable. A sharded
/// front-end is folded once per report and the fold also serves the
/// snapshot.
std::unique_ptr<MeasurementStage> make_engine_stage(std::unique_ptr<HhhSummary> summary);

}  // namespace hhh::pipeline
