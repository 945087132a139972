// Quickstart: the library in ~60 lines.
//
//  1. Generate a synthetic Tier-1-like trace (or read a pcap — see
//     examples/pcap_analysis.cpp).
//  2. Run the two window models the paper compares.
//  3. Print the hidden HHHs — what disjoint windows never showed you.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "analysis/hidden_analysis.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/strings.hpp"

using namespace hhh;

int main() {
  // 1. A 2-minute trace at 2500 packets/s: hierarchical-Zipf background
  //    plus bursty sources (the kind window boundaries hide).
  const TraceConfig config = TraceConfig::caida_like_day(/*day=*/0, Duration::seconds(120),
                                                         /*background_pps=*/2500.0);
  SyntheticTraceGenerator generator(config);
  const std::vector<PacketRecord> packets = generator.generate_all();
  std::printf("trace: %s packets, %.0f seconds\n", with_thousands(packets.size()).c_str(),
              config.duration.to_seconds());

  // 2. Disjoint 10-second windows vs a sliding 10-second window at a
  //    1-second step, both at a 1%-of-bytes threshold (the paper's setup).
  HiddenHhhParams params;
  params.window = Duration::seconds(10);
  params.step = Duration::seconds(1);
  params.phi = 0.01;
  const HiddenHhhResult result = analyze_hidden_hhh(packets, params);

  std::printf("disjoint windows reported %zu distinct HHH prefixes over %zu windows\n",
              result.disjoint_prefixes.size(), result.disjoint_windows);
  std::printf("sliding window reported  %zu distinct HHH prefixes over %zu positions\n",
              result.sliding_prefixes.size(), result.sliding_reports);

  // 3. The punchline: HHHs the disjoint model never reported.
  std::printf("\nhidden HHHs (%zu, %s of all distinct HHHs):\n", result.hidden.size(),
              percent(result.hidden_fraction_of_union()).c_str());
  std::size_t shown = 0;
  for (const auto& prefix : result.hidden) {
    std::printf("  %s\n", prefix.to_string().c_str());
    if (++shown == 10 && result.hidden.size() > 10) {
      std::printf("  ... and %zu more\n", result.hidden.size() - 10);
      break;
    }
  }
  return 0;
}
