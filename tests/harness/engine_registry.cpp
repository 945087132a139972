#include "harness/engine_registry.hpp"

#include <stdexcept>

#include "core/engine_registry.hpp"

namespace hhh::harness {

// The conformance axis is the library-level registry (src/core/
// engine_registry.cpp) verbatim: each EngineSpec becomes one gtest
// parameter case, so an engine registered for the accuracy sweep and the
// CLI surface is automatically under the behavioural contract too —
// there is no way to ship a registry engine that skips conformance.
const std::vector<EngineCase>& conformance_engines() {
  static const std::vector<EngineCase> cases = [] {
    std::vector<EngineCase> out;
    out.reserve(engine_registry().size());
    for (const auto& spec : engine_registry()) {
      out.push_back(EngineCase{spec.name, spec.make, spec.hierarchy, spec.v6_fraction});
    }
    return out;
  }();
  return cases;
}

std::string conformance_engine_name(std::size_t index) {
  return conformance_engines()[index].name;
}

std::unique_ptr<HhhEngine> as_engine(std::unique_ptr<HhhSummary> summary) {
  auto* engine = dynamic_cast<HhhEngine*>(summary.get());
  if (engine == nullptr) throw std::logic_error("decoded summary is not an engine");
  summary.release();
  return std::unique_ptr<HhhEngine>(engine);
}

}  // namespace hhh::harness
