/// \file
/// Snapshot framing: the self-describing container every serialized
/// engine/detector travels in, over files, pipes or sockets.
///
/// Frame layout (all integers little-endian):
///
/// | offset | size | field                                     |
/// |-------:|-----:|-------------------------------------------|
/// |      0 |    4 | magic `"HHHS"` (0x48 0x48 0x48 0x53)      |
/// |      4 |    2 | format version (currently 3; 1–2 accepted)|
/// |      6 |    2 | SnapshotKind                              |
/// |      8 |    8 | payload length N                          |
/// |     16 |    N | payload (the object's save_state() bytes) |
/// |   16+N |    4 | CRC-32 over bytes [0, 16+N)               |
///
/// Frames are self-delimiting (the header carries the payload length), so
/// a byte stream of concatenated frames — what vantage points pipe to the
/// collector — needs no outer framing. Validation order is magic →
/// version → declared size vs available bytes → CRC → payload decode;
/// every failure throws a typed wire::WireFormatError.
///
/// Versioning policy: the version is bumped whenever any payload encoding
/// changes shape; readers accept exactly the versions they know and reject
/// everything else with kBadVersion. This build writes version 3 (exact
/// engines carry leaf counters only) and still reads 2 (family-generic,
/// exact engines carry every level) and 1 (IPv4-only): the frame's version
/// travels in the payload Reader, and the decoders branch on it. There are
/// no in-place "minor" extensions beyond that — a frame either parses
/// under a known version's rules or is refused.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "util/sim_time.hpp"
#include "wire/wire.hpp"

namespace hhh {
class HhhEngine;
class MementoDetector;
}  // namespace hhh

namespace hhh::wire {

/// First four frame bytes: "HHHS".
inline constexpr std::uint8_t kSnapshotMagic[4] = {'H', 'H', 'H', 'S'};
/// The format version this build writes; it accepts
/// [kSnapshotMinVersion, kSnapshotVersion].
inline constexpr std::uint16_t kSnapshotVersion = kWireVersion;
/// Oldest format version this build still reads (IPv4-only payloads).
inline constexpr std::uint16_t kSnapshotMinVersion = kWireMinVersion;
/// Frame header bytes (magic + version + kind + payload length).
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Trailing CRC-32 bytes.
inline constexpr std::size_t kFrameCrcBytes = 4;

/// What a frame's payload contains. Values are wire-stable: never reuse
/// or renumber.
enum class SnapshotKind : std::uint16_t {
  kExactEngine = 1,     ///< ExactEngine (lossless counters)
  kRhhhEngine = 2,      ///< RhhhEngine (RHHH or HSS mode)
  kAncestryEngine = 3,  ///< AncestryHhhEngine
  kUnivmonEngine = 4,   ///< UnivmonHhhEngine
  kShardedEngine = 5,   ///< ShardedHhhEngine (restore-in-place only)
  kRetired6 = 6,        ///< retired (the removed WCSS sliding detector);
                        ///< parses, decodes to kUnsupportedEngine, never reused
  kTdbfDetector = 7,    ///< TimeDecayingHhhDetector checkpoint
  kRetired8 = 8,        ///< retired (the removed disjoint-window detector's
                        ///< checkpoint); parses, decodes to kUnsupportedEngine,
                        ///< never reused
  kStreamHello = 9,     ///< collector-service stream greeting (service/frame_stream.hpp)
  kEpochFrame = 10,     ///< epoch envelope: window span + one embedded frame
  kStreamBye = 11,      ///< clean end-of-stream marker (and the collector's ack)
  kCollectorCheckpoint = 12,  ///< hhh-collectord crash-recovery checkpoint
  kMementoDetector = 13,      ///< BasicMementoHhhDetector (v4 or v6)
};

/// Stable lower-case name of a SnapshotKind ("exact_engine", ...).
const char* to_string(SnapshotKind kind) noexcept;

/// A validated view into one frame of a (possibly longer) byte stream.
struct FrameView {
  SnapshotKind kind;                        ///< declared payload kind
  std::span<const std::uint8_t> payload;    ///< payload bytes (CRC-checked)
  std::size_t frame_size = 0;               ///< total frame bytes consumed
  std::uint16_t version = kSnapshotVersion; ///< the frame's declared version
};

/// Wrap a payload in a frame (magic, version, kind, length, CRC).
std::vector<std::uint8_t> build_frame(SnapshotKind kind,
                                      std::span<const std::uint8_t> payload);

/// Validate and view the first frame of `buffer` (magic → version → size
/// → CRC). Trailing bytes after the frame are allowed — that is how
/// concatenated frame streams are consumed; use FrameView::frame_size to
/// advance. Throws WireFormatError on any violation.
FrameView parse_frame(std::span<const std::uint8_t> buffer);

/// Sanity cap a *stream* decoder applies to a declared payload length
/// before buffering: a corrupt or hostile length field must produce a
/// typed error, not a multi-gigabyte allocation inside a daemon. Large
/// enough for every real snapshot (the biggest committed engine frame is
/// tens of MB).
inline constexpr std::size_t kMaxStreamPayloadBytes = std::size_t{1} << 30;

/// Incremental (chunk-at-a-time) look at the head of `buffer`.
struct FrameScan {
  /// True once `buffer` holds the whole first frame (parse_frame will not
  /// report kTruncated for it).
  bool complete = false;
  /// When complete: total frame bytes. When incomplete: the minimum
  /// buffer size at which the scan can make further progress (the next
  /// feed target, not necessarily the final frame size).
  std::size_t bytes_needed = 0;
};

/// Classify the head of a growing buffer without requiring the full
/// frame: the incremental seam under socket readers. Violations that are
/// already decidable from the available prefix throw immediately — bad
/// magic bytes (kBadMagic, even with fewer than 4 bytes buffered),
/// unknown version (kBadVersion), unknown kind (kBadValue), or a declared
/// payload above `max_payload` (kBadValue) — so a garbage peer is
/// rejected on its first bytes instead of after an unbounded buffer.
/// CRC and payload validation stay in parse_frame once the frame is
/// complete.
FrameScan scan_frame(std::span<const std::uint8_t> buffer,
                     std::size_t max_payload = kMaxStreamPayloadBytes);

/// The SnapshotKind a serializable engine's snapshot carries, derived
/// from the engine's stable name(). Throws WireFormatError
/// (kUnsupportedEngine) for engines that are not serializable.
SnapshotKind engine_snapshot_kind(const HhhEngine& engine);

/// Serialize `engine` into one framed snapshot.
std::vector<std::uint8_t> save_engine(const HhhEngine& engine);

/// Serialize a Memento sliding-window detector into one kMementoDetector
/// frame.
std::vector<std::uint8_t> save_memento(const MementoDetector& detector);

/// Construct a new engine from a snapshot frame. `buffer` must contain
/// exactly one frame (kTrailingBytes otherwise — use parse_frame for
/// streams). Sharded snapshots are rejected with kUnsupportedEngine:
/// their factory cannot travel, restore them with load_engine_into().
std::unique_ptr<HhhEngine> load_engine(std::span<const std::uint8_t> buffer);

/// Construct a new engine from an already-validated frame.
std::unique_ptr<HhhEngine> load_engine(const FrameView& frame);

/// One decoded vantage state: either an HhhEngine (disjoint windows) or
/// a Memento sliding-window detector (kMementoDetector). It is the one
/// place that branches on the state family — the collector's MergeLedger
/// and the pipeline's FrameRing both merge and report through it.
///
/// A sliding state is queried at its watermark: the start of the newest
/// frame it observed (MementoDetector::high_watermark(); TimePoint() for
/// engines). Memento merges advance the watermark to the later of the
/// two, so a merged summary answers for the newest instant any of its
/// inputs reached.
class DecodedSummary {
 public:
  /// Wrap an engine; throws std::invalid_argument on null.
  explicit DecodedSummary(std::unique_ptr<HhhEngine> engine);
  /// Wrap a Memento detector; throws std::invalid_argument on null.
  explicit DecodedSummary(std::unique_ptr<MementoDetector> detector);
  /// Move-only: a summary owns its state.
  DecodedSummary(DecodedSummary&&) noexcept;
  /// Move-only: a summary owns its state.
  DecodedSummary& operator=(DecodedSummary&&) noexcept;
  /// Defined where the state types are complete.
  ~DecodedSummary();

  /// Decode one vantage-state frame: kMementoDetector into a detector,
  /// every other kind through load_engine(). Kinds that carry no vantage
  /// state (stream frames, checkpoints, sharded snapshots, retired kind
  /// 6) throw WireFormatError(kUnsupportedEngine); payload bytes past
  /// the state throw kTrailingBytes.
  static DecodedSummary decode(const FrameView& frame);

  /// Compatibility key: the engine's name, or "memento" / "memento_v6".
  std::string key() const;
  /// True for sliding-window state (Memento), false for engines.
  bool sliding() const noexcept { return memento_ != nullptr; }
  /// The query instant of a sliding state; TimePoint() for engines.
  TimePoint watermark() const noexcept;
  /// Bytes in scope: the engine's total, or the detector's exact window
  /// total at the watermark. Drives absolute-threshold mode.
  double total();
  /// HHHs at relative threshold `phi`: extract(phi) for engines,
  /// query(watermark, phi) for detectors. Non-const: sliding queries
  /// advance expiry bookkeeping.
  HhhSet report(double phi);
  /// Fold `other` into this state (merge_from of the family). Throws
  /// std::invalid_argument across families or on a params mismatch.
  void merge_from(const DecodedSummary& other);
  /// The state serialized as one snapshot frame (decode() inverts it).
  std::vector<std::uint8_t> frame() const;

 private:
  std::unique_ptr<HhhEngine> engine_;
  std::unique_ptr<MementoDetector> memento_;
};

/// Restore a snapshot into an existing, identically-configured engine —
/// the checkpoint/restore path, and the only restore path for sharded
/// engines. Validates that the frame kind matches the receiving engine
/// (kParamsMismatch otherwise) and that the payload is fully consumed.
void load_engine_into(std::span<const std::uint8_t> buffer, HhhEngine& engine);

/// Write `bytes` to `path` atomically enough for checkpoints (write to
/// path + ".tmp", then rename). Throws std::runtime_error on I/O errors.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// Read a whole file into memory. Throws std::runtime_error on I/O
/// errors.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Drain an open stream (e.g. stdin carrying concatenated frames) into
/// memory. Throws std::runtime_error on a stream read error — a
/// mid-stream failure must not be mistaken for end-of-stream.
std::vector<std::uint8_t> read_stream(std::FILE* f);

}  // namespace hhh::wire
