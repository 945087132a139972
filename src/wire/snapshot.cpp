#include "wire/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/ancestry_hhh.hpp"
#include "core/engine.hpp"
#include "core/exact_engine.hpp"
#include "core/memento_hhh.hpp"
#include "core/rhhh.hpp"
#include "core/univmon_hhh.hpp"

namespace hhh::wire {

const char* to_string(SnapshotKind kind) noexcept {
  switch (kind) {
    case SnapshotKind::kExactEngine: return "exact_engine";
    case SnapshotKind::kRhhhEngine: return "rhhh_engine";
    case SnapshotKind::kAncestryEngine: return "ancestry_engine";
    case SnapshotKind::kUnivmonEngine: return "univmon_engine";
    case SnapshotKind::kShardedEngine: return "sharded_engine";
    case SnapshotKind::kRetired6: return "retired_6";
    case SnapshotKind::kTdbfDetector: return "tdbf_detector";
    case SnapshotKind::kRetired8: return "retired_8";
    case SnapshotKind::kStreamHello: return "stream_hello";
    case SnapshotKind::kEpochFrame: return "epoch_frame";
    case SnapshotKind::kStreamBye: return "stream_bye";
    case SnapshotKind::kCollectorCheckpoint: return "collector_checkpoint";
    case SnapshotKind::kMementoDetector: return "memento_detector";
  }
  return "unknown";
}

namespace {

bool known_kind(std::uint16_t k) noexcept {
  return k >= static_cast<std::uint16_t>(SnapshotKind::kExactEngine) &&
         k <= static_cast<std::uint16_t>(SnapshotKind::kMementoDetector);
}

}  // namespace

std::vector<std::uint8_t> build_frame(SnapshotKind kind,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameCrcBytes);
  Writer w(out);
  w.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u16(kSnapshotVersion);
  w.u16(static_cast<std::uint16_t>(kind));
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  w.u32(crc32(out.data(), out.size()));
  return out;
}

FrameView parse_frame(std::span<const std::uint8_t> buffer) {
  check(buffer.size() >= kFrameHeaderBytes + kFrameCrcBytes, WireError::kTruncated,
        "frame shorter than header + CRC");
  check(std::memcmp(buffer.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0,
        WireError::kBadMagic, "missing HHHS magic");

  Reader header(buffer.subspan(sizeof(kSnapshotMagic), 12));
  const std::uint16_t version = header.u16();
  if (version < kSnapshotMinVersion || version > kSnapshotVersion) {
    throw WireFormatError(WireError::kBadVersion,
                          "frame version " + std::to_string(version) +
                              ", this build reads versions " +
                              std::to_string(kSnapshotMinVersion) + ".." +
                              std::to_string(kSnapshotVersion));
  }
  const std::uint16_t raw_kind = header.u16();
  check(known_kind(raw_kind), WireError::kBadValue,
        "unknown snapshot kind");
  const std::uint64_t payload_len = header.u64();
  check(payload_len <= buffer.size() - kFrameHeaderBytes - kFrameCrcBytes,
        WireError::kTruncated, "declared payload exceeds available bytes");
  const std::uint64_t frame_size = kFrameHeaderBytes + payload_len + kFrameCrcBytes;

  Reader crc_field(buffer.subspan(kFrameHeaderBytes + payload_len, kFrameCrcBytes));
  const std::uint32_t stored = crc_field.u32();
  const std::uint32_t computed = crc32(buffer.data(), kFrameHeaderBytes + payload_len);
  check(stored == computed, WireError::kBadCrc, "frame checksum mismatch");

  FrameView view;
  view.kind = static_cast<SnapshotKind>(raw_kind);
  view.payload = buffer.subspan(kFrameHeaderBytes, payload_len);
  view.frame_size = static_cast<std::size_t>(frame_size);
  view.version = version;
  return view;
}

FrameScan scan_frame(std::span<const std::uint8_t> buffer, std::size_t max_payload) {
  // Magic: reject a wrong prefix as soon as the first differing byte is
  // buffered — a peer speaking the wrong protocol fails on byte one.
  const std::size_t magic_have = std::min(buffer.size(), sizeof(kSnapshotMagic));
  check(magic_have == 0 ||
            std::memcmp(buffer.data(), kSnapshotMagic, magic_have) == 0,
        WireError::kBadMagic, "missing HHHS magic");
  if (buffer.size() < kFrameHeaderBytes) {
    return FrameScan{.complete = false, .bytes_needed = kFrameHeaderBytes};
  }
  Reader header(buffer.subspan(sizeof(kSnapshotMagic), 12));
  const std::uint16_t version = header.u16();
  if (version < kSnapshotMinVersion || version > kSnapshotVersion) {
    throw WireFormatError(WireError::kBadVersion,
                          "frame version " + std::to_string(version) +
                              ", this build reads versions " +
                              std::to_string(kSnapshotMinVersion) + ".." +
                              std::to_string(kSnapshotVersion));
  }
  check(known_kind(header.u16()), WireError::kBadValue, "unknown snapshot kind");
  const std::uint64_t payload_len = header.u64();
  check(payload_len <= max_payload, WireError::kBadValue,
        "declared payload exceeds the stream decoder's size cap");
  const std::size_t frame_size =
      kFrameHeaderBytes + static_cast<std::size_t>(payload_len) + kFrameCrcBytes;
  if (buffer.size() < frame_size) {
    return FrameScan{.complete = false, .bytes_needed = frame_size};
  }
  return FrameScan{.complete = true, .bytes_needed = frame_size};
}

SnapshotKind engine_snapshot_kind(const HhhEngine& engine) {
  if (!engine.serializable()) {
    throw WireFormatError(WireError::kUnsupportedEngine,
                          "engine '" + engine.name() + "' is not serializable");
  }
  const std::string name = engine.name();
  if (name == "exact" || name == "exact_v6") return SnapshotKind::kExactEngine;
  if (name == "rhhh" || name == "hss" || name == "rhhh_v6" || name == "hss_v6") {
    return SnapshotKind::kRhhhEngine;
  }
  if (name == "ancestry") return SnapshotKind::kAncestryEngine;
  if (name == "univmon") return SnapshotKind::kUnivmonEngine;
  if (name.starts_with("sharded_")) return SnapshotKind::kShardedEngine;
  throw WireFormatError(WireError::kUnsupportedEngine,
                        "no snapshot kind for engine '" + name + "'");
}

std::vector<std::uint8_t> save_engine(const HhhEngine& engine) {
  const SnapshotKind kind = engine_snapshot_kind(engine);
  std::vector<std::uint8_t> payload;
  Writer w(payload);
  engine.save_state(w);
  return build_frame(kind, payload);
}

std::vector<std::uint8_t> save_memento(const MementoDetector& detector) {
  std::vector<std::uint8_t> payload;
  Writer w(payload);
  detector.save_state(w);
  return build_frame(SnapshotKind::kMementoDetector, payload);
}

std::unique_ptr<HhhEngine> load_engine(const FrameView& frame) {
  Reader r(frame.payload, frame.version);
  std::unique_ptr<HhhEngine> engine;
  switch (frame.kind) {
    case SnapshotKind::kExactEngine:
      engine = deserialize_exact_engine(r);
      break;
    case SnapshotKind::kRhhhEngine:
      engine = deserialize_rhhh_engine(r);
      break;
    case SnapshotKind::kAncestryEngine:
      engine = AncestryHhhEngine::deserialize(r);
      break;
    case SnapshotKind::kUnivmonEngine:
      engine = UnivmonHhhEngine::deserialize(r);
      break;
    case SnapshotKind::kShardedEngine:
      throw WireFormatError(
          WireError::kUnsupportedEngine,
          "sharded snapshots restore only into an identically-built engine "
          "(load_engine_into)");
    default:
      throw WireFormatError(WireError::kUnsupportedEngine,
                            std::string("frame kind '") + to_string(frame.kind) +
                                "' is not an engine snapshot");
  }
  check(r.done(), WireError::kTrailingBytes, "payload continues past engine state");
  return engine;
}

std::unique_ptr<HhhEngine> load_engine(std::span<const std::uint8_t> buffer) {
  const FrameView frame = parse_frame(buffer);
  check(frame.frame_size == buffer.size(), WireError::kTrailingBytes,
        "buffer continues past the frame");
  return load_engine(frame);
}

DecodedSummary::DecodedSummary(std::unique_ptr<HhhEngine> engine)
    : engine_(std::move(engine)) {
  if (!engine_) throw std::invalid_argument("DecodedSummary: null engine");
}

DecodedSummary::DecodedSummary(std::unique_ptr<MementoDetector> detector)
    : memento_(std::move(detector)) {
  if (!memento_) throw std::invalid_argument("DecodedSummary: null detector");
}

DecodedSummary::DecodedSummary(DecodedSummary&&) noexcept = default;
DecodedSummary& DecodedSummary::operator=(DecodedSummary&&) noexcept = default;
DecodedSummary::~DecodedSummary() = default;

DecodedSummary DecodedSummary::decode(const FrameView& frame) {
  if (frame.kind != SnapshotKind::kMementoDetector) return DecodedSummary(load_engine(frame));
  Reader r(frame.payload, frame.version);
  DecodedSummary summary(deserialize_memento_detector(r));
  check(r.done(), WireError::kTrailingBytes, "payload continues past detector state");
  return summary;
}

std::string DecodedSummary::key() const {
  return engine_ ? engine_->name() : memento_->name();
}

TimePoint DecodedSummary::watermark() const noexcept {
  return memento_ ? memento_->high_watermark() : TimePoint();
}

double DecodedSummary::total() {
  return engine_ ? static_cast<double>(engine_->total_bytes())
                 : memento_->window_total(memento_->high_watermark());
}

HhhSet DecodedSummary::report(double phi) {
  return engine_ ? engine_->extract(phi) : memento_->query(memento_->high_watermark(), phi);
}

void DecodedSummary::merge_from(const DecodedSummary& other) {
  if (sliding() != other.sliding()) {
    throw std::invalid_argument("cannot merge '" + other.key() + "' into '" + key() +
                                "': engine and sliding-window states do not mix");
  }
  if (engine_) {
    engine_->merge_from(*other.engine_);
  } else {
    memento_->merge_from(*other.memento_);
  }
}

std::vector<std::uint8_t> DecodedSummary::frame() const {
  return engine_ ? save_engine(*engine_) : save_memento(*memento_);
}

void load_engine_into(std::span<const std::uint8_t> buffer, HhhEngine& engine) {
  const FrameView frame = parse_frame(buffer);
  check(frame.frame_size == buffer.size(), WireError::kTrailingBytes,
        "buffer continues past the frame");
  check(frame.kind == engine_snapshot_kind(engine), WireError::kParamsMismatch,
        "snapshot kind does not match the receiving engine");
  Reader r(frame.payload, frame.version);
  engine.load_state(r);
  check(r.done(), WireError::kTrailingBytes, "payload continues past engine state");
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open " + tmp + " for writing");
  const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;  // always close, even after a short write
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> read_stream(std::FILE* f) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  if (std::ferror(f) != 0) throw std::runtime_error("stream read error");
  return bytes;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open " + path);
  try {
    std::vector<std::uint8_t> bytes = read_stream(f);
    std::fclose(f);
    return bytes;
  } catch (...) {
    std::fclose(f);
    throw;
  }
}

}  // namespace hhh::wire
