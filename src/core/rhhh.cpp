#include "core/rhhh.hpp"

#include <array>
#include <stdexcept>

#include "wire/codec.hpp"

namespace hhh {
namespace {

RhhhParams read_rhhh_params(wire::Reader& r) {
  RhhhParams p;
  p.hierarchy = wire::read_hierarchy(r);
  p.counters_per_level = r.u64();
  p.update_all_levels = r.boolean();
  p.seed = r.u64();
  // Upper bound far above any real configuration: wire-controlled sizes
  // must not be able to drive multi-GB allocations before validation.
  wire::check(p.counters_per_level > 0 && p.counters_per_level <= (1u << 20),
              wire::WireError::kBadValue, "RhhhEngine counters_per_level out of range");
  return p;
}

void write_rhhh_params(wire::Writer& w, const RhhhParams& p) {
  wire::write_hierarchy(w, p.hierarchy);
  w.u64(p.counters_per_level);
  w.boolean(p.update_all_levels);
  w.u64(p.seed);
}

}  // namespace

template <typename D>
BasicRhhhEngine<D>::BasicRhhhEngine(const Params& params)
    : params_(params), rng_(params.seed) {
  if (params_.hierarchy.family() != D::kFamily) {
    throw std::invalid_argument("RhhhEngine: hierarchy family mismatch");
  }
  levels_.reserve(params_.hierarchy.levels());
  for (std::size_t i = 0; i < params_.hierarchy.levels(); ++i) {
    levels_.emplace_back(params_.counters_per_level);
  }
}

template <typename D>
void BasicRhhhEngine<D>::add_batch(std::span<const PacketRecord> packets) {
  if (params_.update_all_levels) {
    // HSS ablation: level-major order walks each Space-Saving instance
    // once over the whole batch instead of cycling through all H maps per
    // packet, keeping one map's slots/heap hot in cache at a time.
    for (std::size_t level = 0; level < levels_.size(); ++level) {
      auto& ss = levels_[level];
      const unsigned len = params_.hierarchy.length_at(level);
      for (const auto& p : packets) {
        if (p.family() != D::kFamily) continue;
        ss.update(D::key_halves(p.src_hi(), p.src_lo(), len), p.ip_len);
      }
    }
    for (const auto& p : packets) {
      if (p.family() != D::kFamily) continue;
      total_bytes_ += p.ip_len;
      ++updates_;
    }
    return;
  }

  // Sampled mode: one uniform level per packet, two draws per RNG step.
  const unsigned* const lens = params_.hierarchy.lengths().data();
  LevelDraws draws(rng_, levels_.size());
  std::uint64_t bytes = 0;
  std::uint64_t matched = 0;
  for (const PacketRecord& p : packets) {
    if (p.family() != D::kFamily) continue;  // skipped packets draw nothing
    const std::size_t level = draws.next();
    levels_[level].update(D::key_halves(p.src_hi(), p.src_lo(), lens[level]), p.ip_len);
    bytes += p.ip_len;
    ++matched;
  }
  total_bytes_ += bytes;
  updates_ += matched;
}

template <typename D>
void BasicRhhhEngine<D>::merge_from(const HhhSummary& other) {
  const auto* peer = dynamic_cast<const BasicRhhhEngine*>(&other);
  if (peer == nullptr) {
    throw std::invalid_argument("RhhhEngine::merge_from: peer is not an RhhhEngine ('" +
                                other.name() + "')");
  }
  if (peer->params_.hierarchy != params_.hierarchy ||
      peer->params_.update_all_levels != params_.update_all_levels ||
      peer->params_.counters_per_level != params_.counters_per_level) {
    // Capacities must match too: the documented (N1+N2)/k bound is computed
    // from *this* engine's k, which a smaller peer capacity would void.
    throw std::invalid_argument("RhhhEngine::merge_from: incompatible configuration");
  }
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].merge_from(peer->levels_[level]);
  }
  total_bytes_ += peer->total_bytes_;
  updates_ += peer->updates_;
}

template <typename D>
double BasicRhhhEngine<D>::estimate(PrefixKey prefix) const {
  const std::size_t level = params_.hierarchy.level_of(prefix);
  if (level == Hierarchy::npos) return 0.0;
  const double scale =
      params_.update_all_levels ? 1.0 : static_cast<double>(levels_.size());
  return levels_[level].estimate(D::map_key(prefix)) * scale;
}

template <typename D>
std::string BasicRhhhEngine<D>::name() const {
  const char* base = params_.update_all_levels ? "hss" : "rhhh";
  return D::kFamily == AddressFamily::kIpv4 ? base : std::string(base) + "_v6";
}

template <typename D>
HhhSet BasicRhhhEngine<D>::extract(double phi) const {
  HhhSet result;
  result.total_bytes = total_bytes_;
  result.threshold_bytes = relative_threshold(phi, total_bytes_);
  const double scale =
      params_.update_all_levels ? 1.0 : static_cast<double>(levels_.size());
  ConditionedSelection selection(result, static_cast<double>(result.threshold_bytes));
  for (const auto& level : levels_) {
    for (const auto& entry : level.entries()) {
      selection.offer(D::prefix(entry.key), entry.count * scale);
    }
  }
  return result;
}

template <typename D>
void BasicRhhhEngine<D>::reset() {
  for (auto& level : levels_) level.clear();
  total_bytes_ = 0;
  updates_ = 0;
  // Note: the RNG is deliberately NOT reseeded — windows keep consuming one
  // deterministic sequence, matching a hardware deployment.
}

template <typename D>
void BasicRhhhEngine<D>::save_state(wire::Writer& w) const {
  write_rhhh_params(w, params_);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u64(total_bytes_);
  w.u64(updates_);
  for (const auto& level : levels_) level.save_state(w);
}

template <typename D>
void BasicRhhhEngine<D>::read_state(wire::Reader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  total_bytes_ = r.u64();
  updates_ = r.u64();
  for (auto& level : levels_) level.load_state(r);
}

template <typename D>
void BasicRhhhEngine<D>::load_state(wire::Reader& r) {
  const Params p = read_rhhh_params(r);
  wire::check(p.hierarchy == params_.hierarchy &&
                  p.counters_per_level == params_.counters_per_level &&
                  p.update_all_levels == params_.update_all_levels &&
                  p.seed == params_.seed,
              wire::WireError::kParamsMismatch, "RhhhEngine params mismatch");
  read_state(r);
}

template <typename D>
std::size_t BasicRhhhEngine<D>::memory_bytes() const {
  std::size_t sum = 0;
  for (const auto& level : levels_) sum += level.memory_bytes();
  return sum;
}

template class BasicRhhhEngine<V4Domain>;
template class BasicRhhhEngine<V6Domain>;

std::unique_ptr<HhhEngine> deserialize_rhhh_engine(wire::Reader& r) {
  const RhhhParams p = read_rhhh_params(r);
  if (p.hierarchy.family() == AddressFamily::kIpv4) {
    auto engine = std::make_unique<RhhhEngine>(p);
    engine->read_state(r);
    return engine;
  }
  auto engine = std::make_unique<RhhhV6Engine>(p);
  engine->read_state(r);
  return engine;
}

}  // namespace hhh
