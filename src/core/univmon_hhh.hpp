/// \file
/// UnivMon-backed HHH engine — the paper's reference [4] deployed the way
/// a UnivMon-equipped switch would compute HHHs per window: one universal
/// sketch per hierarchy level, heavy-hitter queries per level, conditioned
/// discounting across levels (same extraction convention as RHHH).
///
/// Included as the third sketch family in the windowed-engine comparison
/// (space-saving-based RHHH, lossy-counting-based ancestry, count-sketch-
/// based UnivMon); the engine-conformance suite exercises all of them
/// through the same contract.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "sketch/univmon.hpp"

namespace hhh {

/// Count-sketch-family HHH engine: one UnivMon per hierarchy level.
class UnivmonHhhEngine final : public HhhEngine {
 public:
  /// Construction-time configuration.
  struct Params {
    Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
    std::size_t levels = 6;            ///< UnivMon sampling levels per hierarchy level
    std::size_t sketch_width = 1024;   ///< Count-Sketch width per level
    std::size_t sketch_depth = 5;      ///< Count-Sketch depth (rows)
    std::size_t top_k = 64;            ///< tracked heavy keys per level
    std::uint64_t seed = 0x0417'0002;  ///< hash-family seed
  };

  /// Engine over `params` (one UnivMon per hierarchy level).
  explicit UnivmonHhhEngine(const Params& params);

  /// O(levels x depth) sketch updates per packet, level-major: per
  /// hierarchy level, stream the whole batch through that level's sketch,
  /// so the level's rows stay hot in cache across consecutive packets.
  /// The per-level sketches share no state, so the order of updates
  /// across levels, and so the batch cuts, cannot change any counter.
  void add_batch(std::span<const PacketRecord> packets) override;
  /// Always IPv4.
  AddressFamily family() const override { return AddressFamily::kIpv4; }
  /// Per-level heavy-hitter queries + conditioned discounting.
  HhhSet extract(double phi) const override;
  /// Rebuild every sketch (window boundary).
  void reset() override;
  /// Exact byte total since the last reset (tracked outside the sketches).
  std::uint64_t total_bytes() const override { return total_bytes_; }
  /// Sum of the per-level sketch footprints.
  std::size_t memory_bytes() const override;
  /// "univmon".
  std::string name() const override { return "univmon"; }

  /// Always true: per-level universal sketches serialize losslessly.
  bool serializable() const override { return true; }
  /// Write params, the exact byte total and every per-level UnivMon.
  void save_state(wire::Writer& w) const override;
  /// Restore state; throws wire::WireFormatError(kParamsMismatch) when
  /// the snapshot's params differ from this engine's.
  void load_state(wire::Reader& r) override;
  /// Construct a UnivMon engine directly from a save_state() payload.
  static std::unique_ptr<UnivmonHhhEngine> deserialize(wire::Reader& r);

 private:
  void rebuild();
  static Params read_params(wire::Reader& r);
  void read_state(wire::Reader& r);

  Params params_;
  std::vector<UnivMon> sketches_;  // one per hierarchy level
  std::uint64_t total_bytes_ = 0;
};

}  // namespace hhh
