#include "core/tdbf_hhh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/key_domain.hpp"
#include "wire/codec.hpp"

namespace hhh {

TimeDecayingHhhDetector::TimeDecayingHhhDetector(const Params& params) : params_(params) {
  if (params_.hierarchy.family() != AddressFamily::kIpv4) {
    throw std::invalid_argument("TimeDecayingHhhDetector: IPv4 hierarchies only");
  }
  const std::size_t levels = params_.hierarchy.levels();
  filters_.reserve(levels);
  candidates_.reserve(levels);
  for (std::size_t i = 0; i < levels; ++i) {
    DecayingCountingBloomFilter::Params fp;
    fp.cells = params_.cells_per_level;
    fp.hashes = params_.hashes;
    fp.half_life = params_.half_life;
    fp.conservative = params_.conservative;
    fp.seed = params_.seed + 0x101 * (i + 1);
    filters_.emplace_back(fp);
    candidates_.emplace_back(params_.candidates_per_level);
  }
  // Rescale often enough that the between-rescale correction factor stays
  // small (2^(1/8) ~ 1.09) but rarely enough to amortize to O(1)/packet.
  rescale_interval_ = Duration::nanos(std::max<std::int64_t>(params_.half_life.ns() / 8, 1));
  inv_half_life_ns_ = 1.0 / static_cast<double>(params_.half_life.ns());
}

TimeDecayingHhhDetector::Params TimeDecayingHhhDetector::for_window(Duration w) {
  Params p;
  p.half_life = Duration::nanos(
      static_cast<std::int64_t>(static_cast<double>(w.ns()) * std::log(2.0)));
  return p;
}

void TimeDecayingHhhDetector::rescale(TimePoint now) {
  const double elapsed_ns = static_cast<double>((now - last_rescale_).ns());
  if (elapsed_ns <= 0.0) return;
  const double factor = std::exp2(-elapsed_ns * inv_half_life_ns_);
  for (auto& ss : candidates_) ss.scale(factor);
  last_rescale_ = now;
}

void TimeDecayingHhhDetector::add_batch(std::span<const PacketRecord> run) {
  for (const PacketRecord& p : run) {
    if (p.family() != AddressFamily::kIpv4) continue;
    if (p.ts - last_rescale_ >= rescale_interval_) rescale(p.ts);

    // Candidate counts are stored decayed-to-last_rescale_; an arrival at
    // a later instant is worth more in those units.
    const double up_factor =
        std::exp2(static_cast<double>((p.ts - last_rescale_).ns()) * inv_half_life_ns_);
    const double weight = static_cast<double>(p.ip_len);

    for (std::size_t level = 0; level < filters_.size(); ++level) {
      const std::uint64_t key = V4Domain::key(p.src(), params_.hierarchy.length_at(level));
      filters_[level].update(key, weight, p.ts);
      candidates_[level].update(key, weight * up_factor);
    }
  }
}

double TimeDecayingHhhDetector::total(TimePoint now) {
  // All levels see identical traffic; level 0's filter carries the total.
  return filters_[0].total(now);
}

HhhSet TimeDecayingHhhDetector::report(TimePoint now, double phi) {
  HhhSet result;
  const double decayed = total(now);
  result.total_bytes = static_cast<std::uint64_t>(decayed);
  const double threshold = std::max(phi * decayed, 1.0);
  result.threshold_bytes = static_cast<std::uint64_t>(std::ceil(threshold));

  // Space-Saving counts decay lazily: bring them to `now` on read.
  const double read_factor =
      std::exp2(-static_cast<double>((now - last_rescale_).ns()) * inv_half_life_ns_);

  struct Selected {
    PrefixKey prefix;
    double full_estimate;
  };
  std::vector<Selected> selected;

  for (std::size_t level = 0; level < filters_.size(); ++level) {
    for (const auto& entry : candidates_[level].entries()) {
      const PrefixKey prefix = V4Domain::prefix(entry.key);
      const double ss_estimate = entry.count * read_factor;
      const double bf_estimate = filters_[level].estimate(entry.key, now);
      const double full = std::min(ss_estimate, bf_estimate);

      double conditioned = full;
      for (const auto& d : selected) {
        if (!prefix.is_ancestor_of(d.prefix)) continue;
        const bool closest = std::none_of(
            selected.begin(), selected.end(), [&](const Selected& between) {
              return between.prefix.length() > prefix.length() &&
                     between.prefix.length() < d.prefix.length() &&
                     between.prefix.is_ancestor_of(d.prefix);
            });
        if (closest) conditioned -= d.full_estimate;
      }

      if (conditioned >= threshold) {
        result.add(HhhItem{prefix, static_cast<std::uint64_t>(full),
                           static_cast<std::uint64_t>(std::max(0.0, conditioned))});
        selected.push_back(Selected{prefix, full});
      }
    }
  }
  return result;
}

double TimeDecayingHhhDetector::half_life_seconds() const noexcept {
  return params_.half_life.to_seconds();
}

std::size_t TimeDecayingHhhDetector::memory_bytes() const noexcept {
  std::size_t sum = 0;
  for (const auto& f : filters_) sum += f.memory_bytes();
  for (const auto& ss : candidates_) sum += ss.memory_bytes();
  return sum;
}

void TimeDecayingHhhDetector::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, params_.hierarchy);
  w.i64(params_.half_life.ns());
  w.u64(params_.cells_per_level);
  w.u64(params_.hashes);
  w.u64(params_.candidates_per_level);
  w.boolean(params_.conservative);
  w.u64(params_.seed);
  wire::write_timepoint(w, last_rescale_);
  for (const auto& f : filters_) f.save_state(w);
  for (const auto& ss : candidates_) ss.save_state(w);
}

void TimeDecayingHhhDetector::load_state(wire::Reader& r) {
  using wire::WireError;
  wire::check(wire::read_hierarchy(r) == params_.hierarchy, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector hierarchy mismatch");
  wire::check(r.i64() == params_.half_life.ns(), WireError::kParamsMismatch,
              "TimeDecayingHhhDetector half-life mismatch");
  wire::check(r.u64() == params_.cells_per_level, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector cell count mismatch");
  wire::check(r.u64() == params_.hashes, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector hash count mismatch");
  wire::check(r.u64() == params_.candidates_per_level, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector candidate capacity mismatch");
  wire::check(r.boolean() == params_.conservative, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector conservative-mode mismatch");
  wire::check(r.u64() == params_.seed, WireError::kParamsMismatch,
              "TimeDecayingHhhDetector seed mismatch");
  last_rescale_ = wire::read_timepoint(r);
  for (auto& f : filters_) f.load_state(r);
  for (auto& ss : candidates_) ss.load_state(r);
}

}  // namespace hhh
