#include "service/frame_stream.hpp"

#include "wire/wire.hpp"

namespace hhh::service {

namespace {

using wire::WireError;

void require_kind(const wire::FrameView& frame, wire::SnapshotKind kind) {
  wire::check(frame.kind == kind, WireError::kBadValue,
              "stream frame of the wrong kind for this protocol step");
}

wire::Reader payload_reader(const wire::FrameView& frame) {
  return wire::Reader(frame.payload, frame.version);
}

void require_proto(wire::Reader& r) {
  const std::uint16_t proto = r.u16();
  wire::check(proto == kStreamProtoVersion, WireError::kBadVersion,
              "unknown collector stream protocol version");
}

}  // namespace

std::vector<std::uint8_t> build_hello(const Hello& hello) {
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  w.u16(kStreamProtoVersion);
  w.str(hello.vantage);
  w.i64(hello.window_ns);
  return wire::build_frame(wire::SnapshotKind::kStreamHello, payload);
}

Hello parse_hello(const wire::FrameView& frame) {
  require_kind(frame, wire::SnapshotKind::kStreamHello);
  wire::Reader r = payload_reader(frame);
  require_proto(r);
  Hello hello;
  hello.vantage = r.str();
  hello.window_ns = r.i64();
  wire::check(r.done(), WireError::kTrailingBytes, "payload continues past hello");
  wire::check(!hello.vantage.empty(), WireError::kBadValue, "empty vantage name");
  wire::check(hello.window_ns > 0, WireError::kBadValue, "non-positive window length");
  return hello;
}

std::vector<std::uint8_t> build_epoch(std::int64_t start_ns, std::int64_t end_ns,
                                      std::uint64_t seq,
                                      std::span<const std::uint8_t> inner_frame) {
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  w.u16(kStreamProtoVersion);
  w.i64(start_ns);
  w.i64(end_ns);
  w.u64(seq);
  w.raw(inner_frame.data(), inner_frame.size());
  return wire::build_frame(wire::SnapshotKind::kEpochFrame, payload);
}

EpochFrame parse_epoch(const wire::FrameView& frame) {
  require_kind(frame, wire::SnapshotKind::kEpochFrame);
  wire::Reader r = payload_reader(frame);
  require_proto(r);
  EpochFrame epoch;
  epoch.start_ns = r.i64();
  epoch.end_ns = r.i64();
  epoch.seq = r.u64();
  wire::check(epoch.end_ns > epoch.start_ns, WireError::kBadValue,
              "epoch window span is empty or inverted");
  epoch.inner = r.peek_rest();
  // The embedded bytes must be exactly one valid snapshot frame: CRC and
  // structure are checked here, at the envelope, so a corrupt inner frame
  // is a typed protocol error on arrival, not a surprise at merge time.
  epoch.inner_frame = wire::parse_frame(epoch.inner);
  wire::check(epoch.inner_frame.frame_size == epoch.inner.size(), WireError::kTrailingBytes,
              "epoch payload continues past its embedded frame");
  return epoch;
}

std::vector<std::uint8_t> build_bye(const Bye& bye) {
  std::vector<std::uint8_t> payload;
  wire::Writer w(payload);
  w.u16(kStreamProtoVersion);
  w.u64(bye.frames_sent);
  return wire::build_frame(wire::SnapshotKind::kStreamBye, payload);
}

Bye parse_bye(const wire::FrameView& frame) {
  require_kind(frame, wire::SnapshotKind::kStreamBye);
  wire::Reader r = payload_reader(frame);
  require_proto(r);
  Bye bye;
  bye.frames_sent = r.u64();
  wire::check(r.done(), WireError::kTrailingBytes, "payload continues past bye");
  return bye;
}

}  // namespace hhh::service
