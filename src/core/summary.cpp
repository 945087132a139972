#include "core/summary.hpp"

#include <stdexcept>

namespace hhh {

void HhhSummary::merge_from(const HhhSummary& other) {
  throw std::logic_error("HhhSummary::merge_from: '" + name() +
                         "' cannot merge state from '" + other.name() + "'");
}

void HhhSummary::save_state(wire::Writer&) const {
  throw std::logic_error("HhhSummary::save_state: '" + name() + "' is not serializable");
}

void HhhSummary::load_state(wire::Reader&) {
  throw std::logic_error("HhhSummary::load_state: '" + name() + "' is not serializable");
}

}  // namespace hhh
