#include "service/merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "wire/codec.hpp"
#include "wire/wire.hpp"

namespace hhh::service {

double Thresholds::scope_phi(double scope_total) const {
  if (threshold_bytes <= 0.0) return phi;
  if (scope_total <= 0.0) return 1.0;
  return std::min(1.0, threshold_bytes / scope_total);
}

Scope decode_scope(const wire::FrameView& frame, std::string label) {
  return Scope{.label = std::move(label), .summary = wire::load_engine(frame)};
}

MergeLedger::MergeLedger(Thresholds thresholds) : thresholds_(thresholds) {}

void MergeLedger::merge_into_group(std::unique_ptr<HhhSummary> summary) {
  const std::string key = summary->name();
  for (const auto& group : groups_) {
    if (group->name() == key) {
      group->merge_from(*summary);
      return;
    }
  }
  groups_.push_back(std::move(summary));
}

HhhSet MergeLedger::fold(Scope scope) {
  // Extract the scope's local view BEFORE merging: what this single
  // vantage would report on its own is what defines "seen locally".
  HhhSummary& summary = *scope.summary;
  const TimePoint at = summary.watermark();
  HhhSet local = summary.report(at, thresholds_.scope_phi(summary.total(at)));
  seen_locally_.add(local.prefixes());
  merge_into_group(std::move(scope.summary));
  ++scopes_folded_;
  return local;
}

std::vector<std::string> MergeLedger::absorb(MergeLedger&& other) {
  std::vector<std::string> refused;
  for (auto& incoming : other.groups_) {
    const std::string key = incoming->name();
    try {
      merge_into_group(std::move(incoming));
    } catch (const std::invalid_argument& e) {
      // merge_from checks compatibility before it writes, so the
      // cumulative group is untouched.
      refused.push_back("group '" + key + "': " + e.what());
    }
  }
  seen_locally_.add(other.seen_locally_.values());
  scopes_folded_ += other.scopes_folded_;
  other.groups_.clear();
  other.scopes_folded_ = 0;
  return refused;
}

LedgerReport MergeLedger::report() {
  LedgerReport out;
  out.scopes_folded = scopes_folded_;
  PrefixUnion hidden;
  for (const auto& g : groups_) {
    const TimePoint at = g->watermark();
    GroupReport group{.key = g->name(),
                      .merged = g->report(at, thresholds_.scope_phi(g->total(at)))};
    // The reveal: heavy in the merged view, reported by no single scope.
    hidden.add(prefix_difference(group.merged.prefixes(), seen_locally_.values()));
    out.groups.push_back(std::move(group));
  }
  out.hidden = hidden.values();
  return out;
}

std::vector<std::vector<std::uint8_t>> MergeLedger::save_group_frames() const {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(groups_.size());
  for (const auto& g : groups_) frames.push_back(wire::save_engine(*g));
  return frames;
}

void MergeLedger::save_state(wire::Writer& w) const {
  w.u64(groups_.size());
  for (const auto& g : groups_) {
    const std::vector<std::uint8_t> frame = wire::save_engine(*g);
    w.str(g->name());
    wire::write_timepoint(w, g->watermark());
    w.u64(frame.size());
    w.raw(frame.data(), frame.size());
  }
  const auto& seen = seen_locally_.values();
  w.u64(seen.size());
  for (const PrefixKey& p : seen) wire::write_prefix(w, p);
  w.u64(scopes_folded_);
}

void MergeLedger::load_state(wire::Reader& r) {
  wire::check(groups_.empty() && scopes_folded_ == 0, wire::WireError::kBadValue,
              "ledger state restores only into an empty ledger");
  const std::uint64_t n_groups = r.count(1);
  for (std::uint64_t i = 0; i < n_groups; ++i) {
    const std::string key = r.str();
    const TimePoint watermark = wire::read_timepoint(r);
    const std::uint64_t len = r.count(1);
    const std::span<const std::uint8_t> rest = r.peek_rest();
    wire::check(len <= rest.size(), wire::WireError::kTruncated,
                "ledger group frame exceeds available bytes");
    const wire::FrameView frame = wire::parse_frame(rest.subspan(0, len));
    wire::check(frame.frame_size == len, wire::WireError::kTrailingBytes,
                "ledger group bytes continue past their frame");
    std::unique_ptr<HhhSummary> summary = wire::load_engine(frame);
    wire::check(summary->name() == key && summary->watermark() == watermark,
                wire::WireError::kBadValue,
                "ledger group key or watermark disagrees with its frame");
    r.skip(len);
    groups_.push_back(std::move(summary));
  }
  const std::uint64_t n_seen = r.count(1);
  for (std::uint64_t i = 0; i < n_seen; ++i) seen_locally_.add(wire::read_prefix(r));
  scopes_folded_ = r.u64();
}

}  // namespace hhh::service
