/// \file
/// The collector-service stream protocol: what travels on a socket
/// between an `hhh-live --connect` vantage (or a child collector) and
/// `hhh-collectord`.
///
/// The protocol is three snapshot-frame kinds layered on the ordinary
/// wire/snapshot.hpp framing — no second framing scheme, so the
/// incremental SnapshotFrameReader decodes a socket byte-for-byte like a
/// snapshot file:
///
///   1. `kStreamHello` — the first frame after connect: protocol
///      version, the vantage's stable name, its window length. The
///      collector refuses a window length different from its own
///      (epoch alignment would be meaningless).
///   2. `kEpochFrame`* — one per closed window: the window span, a
///      per-connection sequence number, and exactly one embedded inner
///      snapshot frame (an engine or Memento detector snapshot — whatever
///      `hhh-collector` accepts offline).
///   3. `kStreamBye` — clean end of stream, carrying the sender's frame
///      count. The collector answers with its own bye frame as an ack;
///      a sender that waits for it knows every prior byte was consumed,
///      not parked in a kernel buffer of a dying process.
///
/// A connection that ends without a bye is a *dirty* disconnect (crash);
/// the collector keeps everything that epoch-aligned before the cut and
/// logs the rest.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/snapshot.hpp"

namespace hhh::service {

/// Version of the hello/epoch/bye payload encodings (independent of the
/// outer frame version, which covers engine payloads).
inline constexpr std::uint16_t kStreamProtoVersion = 1;

/// The stream greeting.
struct Hello {
  std::string vantage;           ///< stable sender name (log/dedup key)
  std::int64_t window_ns = 0;    ///< the sender's window length
};

/// One epoch contribution: a window span plus one embedded inner frame.
struct EpochFrame {
  std::int64_t start_ns = 0;     ///< window start (trace time)
  std::int64_t end_ns = 0;       ///< exclusive window end
  std::uint64_t seq = 0;         ///< per-connection frame ordinal (0-based)
  std::span<const std::uint8_t> inner;  ///< exactly one complete snapshot frame
  /// `inner` as parse_frame() validated it (CRC included): decode from
  /// this view instead of parsing `inner` again.
  wire::FrameView inner_frame{};
};

/// The clean end-of-stream marker (and the collector's ack).
struct Bye {
  std::uint64_t frames_sent = 0;  ///< epoch frames the sender shipped
};

/// Frame a Hello.
std::vector<std::uint8_t> build_hello(const Hello& hello);
/// Decode a kStreamHello frame. Throws wire::WireFormatError on a wrong
/// kind, unknown protocol version or malformed payload.
Hello parse_hello(const wire::FrameView& frame);

/// Frame one epoch contribution around `inner_frame` (already a complete
/// snapshot frame, e.g. from SinkContext::snapshot()).
std::vector<std::uint8_t> build_epoch(std::int64_t start_ns, std::int64_t end_ns,
                                      std::uint64_t seq,
                                      std::span<const std::uint8_t> inner_frame);
/// Decode a kEpochFrame. Validates that the embedded bytes are exactly
/// one complete, CRC-valid snapshot frame (kTrailingBytes otherwise).
/// The returned view's `inner` points into `frame`'s payload.
EpochFrame parse_epoch(const wire::FrameView& frame);

/// Frame a Bye.
std::vector<std::uint8_t> build_bye(const Bye& bye);
/// Decode a kStreamBye frame.
Bye parse_bye(const wire::FrameView& frame);

}  // namespace hhh::service
