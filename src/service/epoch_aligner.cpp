#include "service/epoch_aligner.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "wire/snapshot.hpp"

namespace hhh::service {

const char* to_string(Offer offer) noexcept {
  switch (offer) {
    case Offer::kAccepted: return "accepted";
    case Offer::kDuplicate: return "duplicate";
    case Offer::kLate: return "late";
    case Offer::kMisaligned: return "misaligned";
  }
  return "unknown";
}

EpochAligner::EpochAligner(AlignerParams params) : params_(params) {
  if (params_.window_ns <= 0) {
    throw std::invalid_argument("EpochAligner: window_ns must be positive");
  }
  if (params_.skew_tolerance_ns <= 0) {
    params_.skew_tolerance_ns = params_.window_ns / 4;
  }
}

bool EpochAligner::Bucket::has(const std::string& vantage) const {
  return std::any_of(frames.begin(), frames.end(),
                     [&](const EpochContribution& c) { return c.vantage == vantage; });
}

void EpochAligner::vantage_up(const std::string& name) { up_.insert(name); }

void EpochAligner::vantage_down(const std::string& name) { up_.erase(name); }

std::int64_t EpochAligner::index_of(std::int64_t start_ns) const {
  // Round to the nearest grid point; works for the slightly-negative
  // starts bounded skew can produce.
  const std::int64_t w = params_.window_ns;
  const std::int64_t shifted = start_ns >= 0 ? start_ns + w / 2 : start_ns - w / 2;
  return shifted / w;
}

Offer EpochAligner::offer(const std::string& vantage, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t seq,
                          std::span<const std::uint8_t> inner, std::int64_t now_ns) {
  const std::int64_t index = index_of(start_ns);
  const std::int64_t aligned = index * params_.window_ns;
  if (std::llabs(start_ns - aligned) > params_.skew_tolerance_ns) {
    return Offer::kMisaligned;
  }
  if (epoch_closed(index)) return Offer::kLate;
  auto [it, inserted] = buckets_.try_emplace(index);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.start_ns = aligned;
    bucket.first_seen_ns = now_ns;
  }
  if (bucket.has(vantage)) return Offer::kDuplicate;
  bucket.end_ns = std::max(bucket.end_ns, end_ns);
  bucket.frames.push_back(EpochContribution{
      .vantage = vantage, .seq = seq,
      .inner = std::vector<std::uint8_t>(inner.begin(), inner.end())});
  return Offer::kAccepted;
}

bool EpochAligner::complete(const Bucket& bucket) const {
  if (bucket.frames.empty()) return false;
  if (params_.expected_vantages > 0) {
    return bucket.frames.size() >= params_.expected_vantages;
  }
  // Adaptive: complete once every connected vantage contributed (a fully
  // disconnected fleet cannot grow the bucket any further).
  return std::all_of(up_.begin(), up_.end(),
                     [&](const std::string& name) { return bucket.has(name); });
}

std::vector<ReadyEpoch> EpochAligner::drain(std::int64_t now_ns) {
  std::vector<ReadyEpoch> ready;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    Bucket& bucket = it->second;
    const bool done = complete(bucket);
    const bool expired = now_ns - bucket.first_seen_ns >= params_.grace_ns;
    if (!done && !expired) {
      ++it;
      continue;
    }
    ReadyEpoch epoch;
    epoch.index = it->first;
    epoch.start_ns = bucket.start_ns;
    epoch.end_ns = std::max(bucket.end_ns, bucket.start_ns + params_.window_ns);
    epoch.first_seen_ns = bucket.first_seen_ns;
    epoch.grace_expired = !done;
    for (const std::string& name : up_) {
      if (!bucket.has(name)) epoch.missing.push_back(name);
    }
    epoch.frames = std::move(bucket.frames);
    mark_closed(epoch.index);
    ready.push_back(std::move(epoch));
    it = buckets_.erase(it);
  }
  return ready;  // std::map iteration order = ascending index
}

std::optional<std::int64_t> EpochAligner::next_deadline_ns() const {
  std::optional<std::int64_t> deadline;
  for (const auto& [index, bucket] : buckets_) {
    const std::int64_t d = bucket.first_seen_ns + params_.grace_ns;
    if (!deadline || d < *deadline) deadline = d;
  }
  return deadline;
}

std::size_t EpochAligner::pending_frames(const std::string& vantage) const {
  std::size_t n = 0;
  for (const auto& [index, bucket] : buckets_) {
    if (bucket.has(vantage)) ++n;
  }
  return n;
}

bool EpochAligner::epoch_closed(std::int64_t index) const {
  return index < closed_watermark_ || closed_ahead_.contains(index);
}

void EpochAligner::mark_closed(std::int64_t index) {
  if (index < closed_watermark_) return;
  closed_ahead_.insert(index);
  while (closed_ahead_.contains(closed_watermark_)) {
    closed_ahead_.erase(closed_watermark_);
    ++closed_watermark_;
  }
}

void EpochAligner::save_state(wire::Writer& w) const {
  w.i64(closed_watermark_);
  w.u64(closed_ahead_.size());
  for (const std::int64_t index : closed_ahead_) w.i64(index);
  w.u64(buckets_.size());
  for (const auto& [index, bucket] : buckets_) {
    w.i64(index);
    w.i64(bucket.start_ns);
    w.i64(bucket.end_ns);
    w.u64(bucket.frames.size());
    for (const EpochContribution& c : bucket.frames) {
      w.str(c.vantage);
      w.u64(c.seq);
      w.u64(c.inner.size());
      w.raw(c.inner.data(), c.inner.size());
    }
  }
}

void EpochAligner::load_state(wire::Reader& r, std::int64_t now_ns) {
  wire::check(buckets_.empty() && closed_ahead_.empty() && closed_watermark_ == 0,
              wire::WireError::kBadValue,
              "aligner state restores only into a fresh aligner");
  closed_watermark_ = r.i64();
  const std::uint64_t n_ahead = r.count(8);
  for (std::uint64_t i = 0; i < n_ahead; ++i) closed_ahead_.insert(r.i64());
  const std::uint64_t n_buckets = r.count(8);
  for (std::uint64_t i = 0; i < n_buckets; ++i) {
    const std::int64_t index = r.i64();
    Bucket bucket;
    bucket.start_ns = r.i64();
    bucket.end_ns = r.i64();
    bucket.first_seen_ns = now_ns;  // grace restarts: arrival clocks died
    const std::uint64_t n_frames = r.count(1);
    for (std::uint64_t f = 0; f < n_frames; ++f) {
      EpochContribution c;
      c.vantage = r.str();
      c.seq = r.u64();
      const std::uint64_t len = r.count(1);
      c.inner.resize(len);
      r.raw(c.inner.data(), len);
      wire::check(wire::parse_frame(c.inner).frame_size == len,
                  wire::WireError::kTrailingBytes,
                  "buffered epoch bytes continue past their frame");
      bucket.frames.push_back(std::move(c));
    }
    buckets_.emplace(index, std::move(bucket));
  }
}

}  // namespace hhh::service
