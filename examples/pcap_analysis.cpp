// Pcap workflow: run the paper's Fig. 2 analysis on a packet capture.
//
//   ./build/examples/pcap_analysis capture.pcap [window_s] [phi]
//
// Without arguments the example first *writes* a capture from the
// synthetic generator (examples must run offline), then analyses it — so
// it doubles as an end-to-end test of the pcap path. Point it at a real
// capture (e.g. a CAIDA trace) to reproduce the paper's measurement on
// real traffic: the analysis code is identical.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/hidden_analysis.hpp"
#include "net/pcap.hpp"
#include "pipeline/source.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/strings.hpp"

using namespace hhh;

int main(int argc, char** argv) {
  std::string path;
  double window_s = 10.0;
  double phi = 0.01;

  if (argc >= 2) {
    path = argv[1];
    if (argc >= 3) parse_double(argv[2], window_s);
    if (argc >= 4) parse_double(argv[3], phi);
  } else {
    // No capture given: synthesize one.
    path = "/tmp/hiddenhhh_example.pcap";
    std::printf("no pcap given — writing a synthetic mixed v4/v6 60 s capture to %s\n",
                path.c_str());
    TraceConfig config = TraceConfig::caida_like_day(3, Duration::seconds(60), 2000.0);
    config.v6_fraction = 0.25;  // dual-stack traffic: the v4 analysis below
                                // reports exactly what it skipped
    SyntheticTraceGenerator generator(config);
    PcapWriter writer(path);
    while (auto p = generator.next()) writer.write(*p);
    std::printf("wrote %s packets\n\n", with_thousands(writer.packets_written()).c_str());
  }

  // Decode through the pipeline's pcap source: timestamps are rebased to
  // the first packet so the window arithmetic starts at t=0 regardless of
  // capture epoch. Nothing is silently dropped: the per-family
  // decode/skip accounting is printed so a dual-stack capture cannot
  // quietly lose its v6 (or v4) share.
  std::vector<PacketRecord> packets;
  pipeline::PcapSourceStats stats;
  try {
    auto source = pipeline::make_pcap_source(path, /*rebase_timestamps=*/true, &stats);
    while (auto p = source->next()) {
      if (p->family() != AddressFamily::kIpv4) {
        continue;  // this example runs the v4 analysis; counted below
      }
      packets.push_back(*p);
    }
    std::printf("decoded from %s:\n", path.c_str());
    std::printf("  IPv4 packets analysed:  %s\n", with_thousands(stats.decoded_v4).c_str());
    std::printf("  IPv6 packets decoded:   %s (not part of this v4 analysis)\n",
                with_thousands(stats.decoded_v6).c_str());
    std::printf("  skipped non-IP frames:  %s\n",
                with_thousands(stats.skipped_non_ip).c_str());
    std::printf("  skipped malformed:      %s\n",
                with_thousands(stats.skipped_malformed).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (packets.empty()) {
    std::fprintf(stderr, "error: no IPv4 packets in capture\n");
    return 1;
  }
  std::printf("capture spans %.1f s\n\n", packets.back().ts.to_seconds());

  HiddenHhhParams params;
  params.window = Duration::from_seconds(window_s);
  params.step = Duration::seconds(1);
  params.phi = phi;
  const auto result = analyze_hidden_hhh(packets, params);

  std::printf("W=%.0fs, step=1s, phi=%s:\n", window_s, percent(phi, 0).c_str());
  std::printf("  disjoint windows: %4zu reports, %4zu distinct HHHs\n",
              result.disjoint_windows, result.disjoint_prefixes.size());
  std::printf("  sliding window:   %4zu reports, %4zu distinct HHHs\n",
              result.sliding_reports, result.sliding_prefixes.size());
  std::printf("  hidden HHHs:      %4zu (%s of all)\n", result.hidden.size(),
              percent(result.hidden_fraction_of_union()).c_str());
  for (std::size_t i = 0; i < result.hidden.size() && i < 8; ++i) {
    std::printf("    %s\n", result.hidden[i].to_string().c_str());
  }
  return 0;
}
