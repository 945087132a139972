// The one place a new HhhEngine registers for conformance testing.
//
// Add ONE entry to conformance_engines() and the whole behavioural
// contract in tests/core_engine_conformance_test.cpp (plus the snapshot
// axis and any future parameterized suite built on this registry) runs
// against the engine. The case carries the engine's hierarchy and the
// workload family mix, so IPv6 engines inherit the entire test axis by
// registering exactly like IPv4 ones.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/hierarchy.hpp"

namespace hhh::harness {

struct EngineCase {
  std::string name;  ///< gtest parameter suffix — [A-Za-z0-9_] only
  std::function<std::unique_ptr<HhhEngine>()> make;
  /// The hierarchy the engine is configured with (drives the
  /// reported-prefixes-at-levels check and the workload family).
  Hierarchy hierarchy = Hierarchy::byte_granularity();
  /// Fraction of IPv6 packets in the conformance workload (0 = pure v4,
  /// 1 = pure v6) — matches TraceConfig::v6_fraction.
  double v6_fraction = 0.0;
};

/// Every engine under conformance. Factories are deterministic: fixed
/// seeds, fixed sizes.
const std::vector<EngineCase>& conformance_engines();

/// Name for gtest's INSTANTIATE_TEST_SUITE_P labelling.
std::string conformance_engine_name(std::size_t index);

/// The engine a decoded frame must hold (wire::load_engine returns an
/// HhhSummary), for tests of engine-only API such as extract(); throws
/// std::logic_error when the summary is not an engine.
std::unique_ptr<HhhEngine> as_engine(std::unique_ptr<HhhSummary> summary);

}  // namespace hhh::harness
