/// \file
/// Full-ancestry streaming HHH (Cormode, Korn, Muthukrishnan, Srivastava) —
/// the classic deterministic epsilon-approximate baseline, implemented as a
/// weighted (byte-stream) lossy-counting trie over the hierarchy.
///
/// State: per hierarchy level, a map prefix -> (f, delta) where f counts
/// bytes attributed since the entry was created and delta bounds the bytes
/// that may have been attributed and compressed away before creation
/// (delta = eps * N_at_creation). Periodically (every 1/eps bytes) the trie
/// is compressed bottom-up: entries with f + delta <= eps * N roll their f
/// into their parent and are deleted.
///
/// Guarantees: for every prefix, true subtree volume is within
/// [f, f + delta + children-rolled-mass] and the total state is
/// O(H/eps * log(eps N)) entries. Extraction mirrors the exact bottom-up
/// discounting on the (f + delta) upper estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "util/flat_hash_map.hpp"

namespace hhh {

/// Deterministic lossy-counting HHH engine (full-ancestry baseline).
class AncestryHhhEngine final : public HhhEngine {
 public:
  /// Construction-time configuration.
  struct Params {
    Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
    double eps = 0.001;  ///< estimate error bound, as a fraction of N
  };

  /// Engine over `params.hierarchy` with error bound `params.eps`; throws
  /// std::invalid_argument when eps is outside (0, 1) or the hierarchy is
  /// not IPv4 (this baseline engine is v4-only; use exact_v6/rhhh_v6 for v6).
  explicit AncestryHhhEngine(const Params& params);

  /// Leaf-level lossy-counting insert per packet + amortized bottom-up
  /// compression. Deltas are stamped and compress() fires at stream
  /// positions, so the trie does not depend on how the stream is cut
  /// into batches.
  void add_batch(std::span<const PacketRecord> packets) override;
  /// Always IPv4.
  AddressFamily family() const override { return AddressFamily::kIpv4; }
  /// Bottom-up conditioned-count extraction over (f + eps*N) upper bounds.
  HhhSet extract(double phi) const override;
  /// Drop the trie and restart the compression cadence.
  void reset() override;
  /// Exact byte total since the last reset.
  std::uint64_t total_bytes() const override { return total_bytes_; }
  /// Footprint of the per-level entry maps.
  std::size_t memory_bytes() const override;
  /// "ancestry".
  std::string name() const override { return "ancestry"; }

  /// Upper estimate of a prefix's subtree byte volume: counted mass of all
  /// live entries inside the prefix plus the eps*N escape bound. Satisfies
  /// truth <= estimate <= truth + eps*N (see extract() notes).
  double estimate(PrefixKey prefix) const;

  /// Number of live trie entries across all levels (space diagnostic).
  std::size_t entry_count() const;

  /// Always true: the lossy-counting trie serializes losslessly.
  bool serializable() const override { return true; }
  /// Write params (hierarchy, eps), totals, the compression cursor and
  /// every live (prefix, f, delta) trie entry.
  void save_state(wire::Writer& w) const override;
  /// Restore state; throws wire::WireFormatError(kParamsMismatch) when
  /// the snapshot's params differ from this engine's.
  void load_state(wire::Reader& r) override;
  /// Construct an ancestry engine directly from a save_state() payload.
  static std::unique_ptr<AncestryHhhEngine> deserialize(wire::Reader& r);

 private:
  static Params read_params(wire::Reader& r);
  void read_state(wire::Reader& r);

  struct Node {
    std::uint64_t f = 0;      ///< bytes counted since creation
    std::uint64_t delta = 0;  ///< upper bound on bytes missed before creation
  };

  void compress();

  Params params_;
  std::vector<FlatHashMap<std::uint64_t, Node>> levels_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t next_compress_at_ = 0;
  std::uint64_t compress_stride_ = 0;
};

}  // namespace hhh
