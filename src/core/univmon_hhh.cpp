#include "core/univmon_hhh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/key_domain.hpp"
#include "util/bit.hpp"
#include "wire/codec.hpp"

namespace hhh {

UnivmonHhhEngine::UnivmonHhhEngine(const Params& params) : params_(params) {
  if (params_.hierarchy.family() != AddressFamily::kIpv4) {
    throw std::invalid_argument("UnivmonHhhEngine: IPv4 hierarchies only");
  }
  rebuild();
}

void UnivmonHhhEngine::rebuild() {
  sketches_.clear();
  sketches_.reserve(params_.hierarchy.levels());
  for (std::size_t i = 0; i < params_.hierarchy.levels(); ++i) {
    UnivMon::Params up;
    up.levels = params_.levels;
    up.sketch_width = params_.sketch_width;
    up.sketch_depth = params_.sketch_depth;
    up.top_k = params_.top_k;
    up.seed = params_.seed + 0x9E37 * (i + 1);
    sketches_.emplace_back(up);
  }
}

void UnivmonHhhEngine::add_batch(std::span<const PacketRecord> packets) {
  // Level-major (see the header note): one pass per hierarchy level with
  // the level's sketch and prefix length hoisted out of the loop.
  std::uint64_t batch_bytes = 0;
  for (const auto& p : packets) {
    if (p.family() != AddressFamily::kIpv4) continue;
    batch_bytes += p.ip_len;
  }
  total_bytes_ += batch_bytes;
  for (std::size_t level = 0; level < sketches_.size(); ++level) {
    UnivMon& sketch = sketches_[level];
    const unsigned len = params_.hierarchy.length_at(level);
    for (const auto& p : packets) {
      if (p.family() != AddressFamily::kIpv4) continue;
      sketch.update(V4Domain::key_halves(p.src_hi(), p.src_lo(), len),
                    static_cast<std::int64_t>(p.ip_len));
    }
  }
}

HhhSet UnivmonHhhEngine::extract(double phi) const {
  HhhSet result;
  result.total_bytes = total_bytes_;
  result.threshold_bytes = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(total_bytes_))));
  const double threshold = static_cast<double>(result.threshold_bytes);

  struct Selected {
    PrefixKey prefix;
    double full_estimate;
  };
  std::vector<Selected> selected;

  for (std::size_t level = 0; level < sketches_.size(); ++level) {
    // Enumerate candidates below the threshold too (half, for estimation
    // slack), then apply the conditioned rule.
    const auto candidates =
        sketches_[level].heavy_hitters(static_cast<std::int64_t>(threshold / 2.0));
    for (const auto& candidate : candidates) {
      const PrefixKey prefix = V4Domain::prefix(candidate.key);
      const double full = static_cast<double>(candidate.estimate);

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
        result.add(HhhItem{prefix, static_cast<std::uint64_t>(std::max(0.0, full)),
                           static_cast<std::uint64_t>(std::max(0.0, conditioned))});
        selected.push_back(Selected{prefix, full});
      }
    }
  }
  return result;
}

void UnivmonHhhEngine::reset() {
  rebuild();
  total_bytes_ = 0;
}

void UnivmonHhhEngine::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, params_.hierarchy);
  w.u64(params_.levels);
  w.u64(params_.sketch_width);
  w.u64(params_.sketch_depth);
  w.u64(params_.top_k);
  w.u64(params_.seed);
  w.u64(total_bytes_);
  for (const auto& sketch : sketches_) sketch.save_state(w);
}

UnivmonHhhEngine::Params UnivmonHhhEngine::read_params(wire::Reader& r) {
  Params p;
  p.hierarchy = wire::read_hierarchy(r);
  p.levels = r.u64();
  p.sketch_width = r.u64();
  p.sketch_depth = r.u64();
  p.top_k = r.u64();
  p.seed = r.u64();
  wire::check(p.levels > 0 && p.levels <= 32, wire::WireError::kBadValue,
              "UnivmonHhhEngine sampling level count out of range");
  wire::check(p.sketch_width <= (1u << 20) && p.sketch_depth <= 16,
              wire::WireError::kBadValue, "UnivmonHhhEngine sketch shape out of range");
  // Every valid payload carries the count-sketch tables densely
  // (CountSketch::save_state writes every counter), so the tables the
  // constructor will allocate for these params must fit in the bytes
  // left: a params-only frame cannot size gigabytes of state. One
  // UnivMon per hierarchy level; widths taper as in UnivMon's constructor.
  std::uint64_t univmon_bytes = 0;  // <= 32 x 2^20 x 16 x 8 after the checks above
  for (std::size_t i = 0; i < p.levels; ++i) {
    const std::uint64_t width =
        next_pow2(std::max<std::uint64_t>(8, p.sketch_width >> std::min<std::size_t>(i, 4)));
    univmon_bytes += width * std::max<std::uint64_t>(p.sketch_depth, 1) * sizeof(std::int64_t);
  }
  // H x univmon_bytes <= remaining, divided instead of multiplied so it
  // cannot overflow.
  wire::check(univmon_bytes <= r.remaining() / p.hierarchy.levels(), wire::WireError::kTruncated,
              "UnivmonHhhEngine sketch tables exceed the payload");
  return p;
}

void UnivmonHhhEngine::read_state(wire::Reader& r) {
  total_bytes_ = r.u64();
  for (auto& sketch : sketches_) sketch.load_state(r);
}

void UnivmonHhhEngine::load_state(wire::Reader& r) {
  const Params p = read_params(r);
  wire::check(p.hierarchy == params_.hierarchy && p.levels == params_.levels &&
                  p.sketch_width == params_.sketch_width &&
                  p.sketch_depth == params_.sketch_depth && p.top_k == params_.top_k &&
                  p.seed == params_.seed,
              wire::WireError::kParamsMismatch, "UnivmonHhhEngine params mismatch");
  read_state(r);
}

std::unique_ptr<UnivmonHhhEngine> UnivmonHhhEngine::deserialize(wire::Reader& r) {
  auto engine = std::make_unique<UnivmonHhhEngine>(read_params(r));
  engine->read_state(r);
  return engine;
}

std::size_t UnivmonHhhEngine::memory_bytes() const {
  std::size_t sum = 0;
  for (const auto& s : sketches_) sum += s.memory_bytes();
  return sum;
}

}  // namespace hhh
