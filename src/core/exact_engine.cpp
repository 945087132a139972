#include "core/exact_engine.hpp"

#include <stdexcept>
#include <utility>

#include "core/exact_hhh.hpp"
#include "wire/codec.hpp"

namespace hhh {

template <typename D>
BasicExactEngine<D>::BasicExactEngine(const Hierarchy& hierarchy) : agg_(hierarchy) {}

template <typename D>
void BasicExactEngine<D>::add_batch(std::span<const PacketRecord> packets) {
  agg_.add_batch(packets);
}

template <typename D>
HhhSet BasicExactEngine<D>::extract(double phi) const {
  return extract_hhh_relative(agg_, phi);
}

template <typename D>
HhhSet BasicExactEngine<D>::report(TimePoint, double phi) {
  agg_.freeze();
  return extract(phi);
}

template <typename D>
std::string BasicExactEngine<D>::name() const {
  return D::kFamily == AddressFamily::kIpv4 ? "exact" : "exact_v6";
}

template <typename D>
void BasicExactEngine<D>::merge_from(const HhhSummary& other) {
  const auto* peer = dynamic_cast<const BasicExactEngine*>(&other);
  if (peer == nullptr) {
    throw std::invalid_argument("ExactEngine::merge_from: peer is not an ExactEngine ('" +
                                other.name() + "')");
  }
  agg_.merge(peer->agg_);
}

template <typename D>
void BasicExactEngine<D>::reset() {
  agg_.clear();
}

template <typename D>
void BasicExactEngine<D>::save_state(wire::Writer& w) const {
  agg_.save_state(w);
}

template <typename D>
void BasicExactEngine<D>::load_state(wire::Reader& r) {
  agg_.load_state(r);
}

template <typename D>
std::size_t BasicExactEngine<D>::memory_bytes() const {
  return agg_.memory_bytes();
}

template class BasicExactEngine<V4Domain>;
template class BasicExactEngine<V6Domain>;

std::unique_ptr<HhhEngine> deserialize_exact_engine(wire::Reader& r) {
  const Hierarchy hierarchy = wire::read_hierarchy(r);
  if (hierarchy.family() == AddressFamily::kIpv4) {
    auto engine = std::make_unique<ExactEngine>(hierarchy);
    engine->agg_.read_counters(r);
    return engine;
  }
  auto engine = std::make_unique<ExactV6Engine>(hierarchy);
  engine->agg_.read_counters(r);
  return engine;
}

std::unique_ptr<HhhEngine> make_exact_engine(const Hierarchy& hierarchy) {
  if (hierarchy.family() == AddressFamily::kIpv4) {
    return std::make_unique<ExactEngine>(hierarchy);
  }
  return std::make_unique<ExactV6Engine>(hierarchy);
}

}  // namespace hhh
