#include "core/memento_hhh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "wire/codec.hpp"

namespace hhh {
namespace {

MementoHhhParams read_memento_params(wire::Reader& r) {
  MementoHhhParams p;
  p.hierarchy = wire::read_hierarchy(r);
  p.window = Duration::nanos(r.i64());
  p.frames = r.u64();
  p.counters_per_level = r.u64();
  p.seed = r.u64();
  // Bounds generous for real deployments but small enough that a crafted
  // frame cannot drive huge allocations at construction time.
  wire::check(p.window.ns() > 0 && p.frames > 0 && p.frames <= (1u << 12) &&
                  p.window.ns() / static_cast<std::int64_t>(p.frames) > 0 &&
                  p.counters_per_level > 0 && p.counters_per_level <= (1u << 20),
              wire::WireError::kBadValue, "MementoHhhDetector params out of range");
  return p;
}

void write_memento_params(wire::Writer& w, const MementoHhhParams& p) {
  wire::write_hierarchy(w, p.hierarchy);
  w.i64(p.window.ns());
  w.u64(p.frames);
  w.u64(p.counters_per_level);
  w.u64(p.seed);
}

bool same_geometry(const MementoHhhParams& a, const MementoHhhParams& b) {
  // Seeds may differ (distinct vantages sample independently); everything
  // that shapes the summaries must match.
  return a.hierarchy == b.hierarchy && a.window == b.window && a.frames == b.frames &&
         a.counters_per_level == b.counters_per_level;
}

}  // namespace

template <typename D>
BasicMementoHhhDetector<D>::BasicMementoHhhDetector(const Params& params)
    : params_(params), rng_(params.seed) {
  if (params_.hierarchy.family() != D::kFamily) {
    throw std::invalid_argument("MementoHhhDetector: hierarchy family mismatch");
  }
  if (params_.frames == 0) throw std::invalid_argument("MementoHhhDetector: frames >= 1");
  if (params_.window.ns() <= 0) throw std::invalid_argument("MementoHhhDetector: bad window");
  frame_len_ = params_.window / static_cast<std::int64_t>(params_.frames);
  if (frame_len_.ns() <= 0) {
    throw std::invalid_argument("MementoHhhDetector: window shorter than frame count");
  }
  typename BasicMementoSummary<D>::Params sp;
  sp.window = params_.window;
  sp.frames = params_.frames;
  sp.counters = params_.counters_per_level;
  levels_.reserve(params_.hierarchy.levels());
  for (std::size_t i = 0; i < params_.hierarchy.levels(); ++i) levels_.emplace_back(sp);
  total_frame_ids_.assign(params_.frames + 1, -1);
  total_frame_bytes_.assign(params_.frames + 1, 0.0);
}

template <typename D>
void BasicMementoHhhDetector<D>::note_packet(TimePoint ts, double bytes) noexcept {
  const auto cap = static_cast<std::int64_t>(total_frame_ids_.size());
  const std::int64_t f = frame_of(ts);
  if (f > current_frame_) {
    const std::int64_t lo =
        std::max(current_frame_ + 1, f - static_cast<std::int64_t>(params_.frames));
    for (std::int64_t fr = lo; fr <= f; ++fr) {
      const auto idx = static_cast<std::size_t>(fr % cap);
      total_frame_ids_[idx] = fr;
      total_frame_bytes_[idx] = 0.0;
    }
    current_frame_ = f;
  }
  if (bytes > 0.0) {
    total_frame_bytes_[static_cast<std::size_t>(current_frame_ % cap)] += bytes;
  }
}

template <typename D>
void BasicMementoHhhDetector<D>::add_batch(std::span<const PacketRecord> run) {
  const unsigned* const lens = params_.hierarchy.lengths().data();
  LevelDraws draws(rng_, levels_.size());
  for (const PacketRecord& p : run) {
    if (p.family() != D::kFamily) continue;  // skipped packets draw nothing
    note_packet(p.ts, p.ip_len);
    const std::size_t level = draws.next();
    levels_[level].update(D::key_halves(p.src_hi(), p.src_lo(), lens[level]), p.ip_len,
                          p.ts);
  }
}

template <typename D>
double BasicMementoHhhDetector<D>::total(TimePoint now) {
  note_packet(now, 0.0);  // advance the total ring without accounting bytes
  const std::int64_t oldest = current_frame_ - static_cast<std::int64_t>(params_.frames);
  double sum = 0.0;
  for (std::size_t i = 0; i < total_frame_ids_.size(); ++i) {
    if (total_frame_ids_[i] >= 0 && total_frame_ids_[i] >= oldest) {
      sum += total_frame_bytes_[i];
    }
  }
  return sum;
}

template <typename D>
HhhSet BasicMementoHhhDetector<D>::report(TimePoint now, double phi) {
  HhhSet result;
  const double window = total(now);
  result.total_bytes = static_cast<std::uint64_t>(window);
  const double threshold = std::max(phi * window, 1.0);
  result.threshold_bytes = static_cast<std::uint64_t>(std::ceil(threshold));
  const double scale = static_cast<double>(levels_.size());
  ConditionedSelection selection(result, threshold);
  for (auto& level : levels_) {
    // Candidates well below the threshold cannot become HHHs (conditioned
    // counts only shrink), so enumerate at half the threshold — in summary
    // units, i.e. divided by the sampling scale — for margin against
    // estimation error.
    for (const auto& candidate : level.candidates_at_least(threshold * 0.5 / scale, now)) {
      selection.offer(D::prefix(candidate.key), candidate.estimate * scale);
    }
  }
  return result;
}

template <typename D>
void BasicMementoHhhDetector<D>::merge_from(const HhhSummary& other) {
  const auto* peer = dynamic_cast<const BasicMementoHhhDetector*>(&other);
  if (peer == nullptr) {
    throw std::invalid_argument("MementoHhhDetector::merge_from: family mismatch ('" +
                                other.name() + "')");
  }
  if (!same_geometry(peer->params_, params_)) {
    throw std::invalid_argument("MementoHhhDetector::merge_from: Params mismatch");
  }

  // Merge the exact total rings by absolute frame (locals first: a
  // self-merge must read both sides unmutated, doubling totals).
  const std::int64_t newest = std::max(current_frame_, peer->current_frame_);
  const std::int64_t oldest = newest - static_cast<std::int64_t>(params_.frames);
  const auto cap = static_cast<std::int64_t>(total_frame_ids_.size());
  std::vector<std::int64_t> ids(total_frame_ids_.size(), -1);
  std::vector<double> totals(total_frame_ids_.size(), 0.0);
  const auto fold_totals = [&](const BasicMementoHhhDetector& side) {
    for (std::size_t i = 0; i < side.total_frame_ids_.size(); ++i) {
      const std::int64_t id = side.total_frame_ids_[i];
      if (id < 0 || id < oldest) continue;
      const auto idx = static_cast<std::size_t>(id % cap);
      ids[idx] = id;
      totals[idx] += side.total_frame_bytes_[i];
    }
  };
  fold_totals(*this);
  fold_totals(*peer);
  total_frame_ids_ = std::move(ids);
  total_frame_bytes_ = std::move(totals);
  current_frame_ = newest;

  for (std::size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].merge_from(peer->levels_[level]);
  }
}

template <typename D>
TimePoint BasicMementoHhhDetector<D>::watermark() const noexcept {
  if (current_frame_ < 0) return TimePoint();
  return TimePoint::from_ns(current_frame_ * frame_len_.ns());
}

template <typename D>
void BasicMementoHhhDetector<D>::save_state(wire::Writer& w) const {
  write_memento_params(w, params_);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.i64(current_frame_);
  for (std::size_t i = 0; i < total_frame_ids_.size(); ++i) {
    w.i64(total_frame_ids_[i]);
    w.f64(total_frame_bytes_[i]);
  }
  for (const auto& level : levels_) level.save_state(w);
}

template <typename D>
void BasicMementoHhhDetector<D>::read_state(wire::Reader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  const std::int64_t current = r.i64();
  wire::check(current >= -1, wire::WireError::kBadValue,
              "MementoHhhDetector bad frame cursor");
  const auto cap = static_cast<std::int64_t>(total_frame_ids_.size());
  for (std::size_t i = 0; i < total_frame_ids_.size(); ++i) {
    total_frame_ids_[i] = r.i64();
    total_frame_bytes_[i] = r.f64();
    wire::check(total_frame_ids_[i] == -1 ||
                    (total_frame_ids_[i] >= 0 && total_frame_ids_[i] <= current &&
                     static_cast<std::size_t>(total_frame_ids_[i] % cap) == i),
                wire::WireError::kBadValue,
                "MementoHhhDetector total frame not at its ring slot");
  }
  current_frame_ = current;
  for (auto& level : levels_) level.load_state(r);
}

template <typename D>
void BasicMementoHhhDetector<D>::load_state(wire::Reader& r) {
  const Params p = read_memento_params(r);
  wire::check(same_geometry(p, params_) && p.seed == params_.seed,
              wire::WireError::kParamsMismatch, "MementoHhhDetector params mismatch");
  read_state(r);
}

template <typename D>
std::size_t BasicMementoHhhDetector<D>::memory_bytes() const noexcept {
  std::size_t sum =
      total_frame_ids_.size() * (sizeof(std::int64_t) + sizeof(double));
  for (const auto& level : levels_) sum += level.memory_bytes();
  return sum;
}

template <typename D>
std::string BasicMementoHhhDetector<D>::name() const {
  return D::kFamily == AddressFamily::kIpv4 ? "memento" : "memento_v6";
}

template class BasicMementoHhhDetector<V4Domain>;
template class BasicMementoHhhDetector<V6Domain>;

std::unique_ptr<HhhSummary> deserialize_memento_detector(wire::Reader& r) {
  const MementoHhhParams p = read_memento_params(r);
  if (p.hierarchy.family() == AddressFamily::kIpv4) {
    auto detector = std::make_unique<MementoHhhDetector>(p);
    detector->read_state(r);
    return detector;
  }
  auto detector = std::make_unique<MementoHhhV6Detector>(p);
  detector->read_state(r);
  return detector;
}

}  // namespace hhh
