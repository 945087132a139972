// Multi-vantage aggregation: an HHH hidden from every single vantage
// point, revealed by merging snapshots — the distributed analogue of the
// paper's window-hidden HHHs (there: traffic split across *time* windows;
// here: traffic split across *observation points*).
//
// Scenario. Three PoPs each observe:
//   * a legitimate local heavy source (a distinct CDN cache per PoP,
//     1.5 MB — over the 1 MB epoch threshold, reported locally);
//   * background noise (300 small distinct sources, 0.3 MB);
//   * a *distributed* sender: hosts inside 203.0.113.0/24 pushing 0.5 MB
//     through EACH PoP (different hosts per PoP). Locally 0.5 MB < 1 MB,
//     so no vantage ever reports the /24 — but network-wide it moves
//     1.5 MB, well over the threshold.
//
// Each "vantage process" is a pipeline runtime instance: an in-memory
// packet source feeding an exact engine stage under a disjoint window
// policy, with a snapshot-stream sink writing the epoch frame
// (pipeline/pipeline.hpp) — exactly the dataflow a real vantage daemon
// runs, minus the NIC. The "collector" reads the files back, folds them
// with HhhEngine::merge_from, and the /24 appears. Two additional
// dual-stack vantages observe IPv6 traffic with a distributed v6 sender
// (2001:db8:113::/48) split the same way — the collector groups the
// snapshots by family and reveals both hidden HHHs in one invocation.
//
// The example also writes each vantage's traffic as an HHT2 trace
// (vantageN.hht) with timestamps spread over two 60-second windows, so
// the bundled tools can replay the same scenario with real window
// cadence:
//
//   ./build/tools/hhh-live --trace=vantage0.hht --window=60 --out=- |
//     ./build/tools/hhh-collector --stdin --threshold-bytes=1000000
//
// (CTest wires all five replays into one collector invocation and asserts
// both reveals.) The example exits non-zero if either offline reveal does
// not happen, so it doubles as an end-to-end smoke test of the wire
// format and the pipeline runtime.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/exact_engine.hpp"
#include "core/hhh_types.hpp"
#include "pipeline/pipeline.hpp"
#include "trace/trace_io.hpp"
#include "wire/snapshot.hpp"

using namespace hhh;

namespace {

constexpr double kThresholdBytes = 1'000'000.0;  // 1 MB per epoch
constexpr double kEpochSeconds = 120.0;          // two 60 s replay windows

/// Spread packet timestamps evenly across the epoch in emission order —
/// the replayed trace then exercises real window boundaries.
std::vector<PacketRecord> stamp(std::vector<PacketRecord> packets) {
  const double dt = kEpochSeconds / static_cast<double>(packets.size() + 1);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].ts = TimePoint::from_seconds(dt * static_cast<double>(i));
  }
  return packets;
}

PacketRecord packet(IpAddress src, std::uint32_t bytes) {
  PacketRecord p;
  p.set_src(src);
  p.ip_len = bytes;
  return p;
}

/// One vantage point's epoch of IPv4 traffic (timestamped, time-ordered).
std::vector<PacketRecord> vantage_traffic(std::size_t vantage) {
  std::vector<PacketRecord> packets;

  // Legitimate local heavy hitter: 1500 x 1000 B = 1.5 MB from one host.
  const auto local_heavy =
      Ipv4Address::of(10, static_cast<std::uint8_t>(vantage + 1), 0, 1);
  for (int i = 0; i < 1500; ++i) packets.push_back(packet(local_heavy, 1000));

  // Background: 300 distinct small sources spread across the space.
  for (std::uint32_t i = 0; i < 300; ++i) {
    const auto src = Ipv4Address::of(static_cast<std::uint8_t>(20 + (i % 170)),
                                     static_cast<std::uint8_t>((i * 7) % 256),
                                     static_cast<std::uint8_t>((i * 13) % 256),
                                     static_cast<std::uint8_t>(i % 256));
    packets.push_back(packet(src, 1000));
  }

  // The distributed sender: 50 hosts of 203.0.113.0/24 (distinct per
  // vantage), 10 x 1000 B each = 0.5 MB — under the local threshold.
  for (std::uint32_t host = 0; host < 50; ++host) {
    const auto src = Ipv4Address::of(
        203, 0, 113, static_cast<std::uint8_t>(vantage * 50 + host));
    for (int i = 0; i < 10; ++i) packets.push_back(packet(src, 1000));
  }

  return stamp(std::move(packets));
}

/// One dual-stack vantage's IPv6 epoch: a local v6 heavy source plus a
/// distributed sender inside 2001:db8:113::/48 pushing 0.6 MB per vantage
/// (under the 1 MB local threshold; 1.2 MB across both).
std::vector<PacketRecord> v6_vantage_traffic(std::size_t vantage) {
  std::vector<PacketRecord> packets;

  // Local heavy: one /128 host per vantage, 1.2 MB.
  const IpAddress local_heavy =
      IpAddress::v6(0x2001'0db8'0000'0000ULL + ((vantage + 1) << 16), 1);
  for (int i = 0; i < 1200; ++i) packets.push_back(packet(local_heavy, 1000));

  // Background: 200 distinct small v6 sources.
  for (std::uint64_t i = 0; i < 200; ++i) {
    packets.push_back(
        packet(IpAddress::v6(0x2001'0db8'00ff'0000ULL | (i * 7919), i + 1), 1000));
  }

  // Distributed sender: 30 subnets of 2001:db8:113::/48 (distinct per
  // vantage, spread across the /56 byte directly under the /48 so no
  // deeper level aggregates the mass first), 20 x 1000 B each = 0.6 MB —
  // under the local threshold.
  for (std::uint64_t host = 0; host < 30; ++host) {
    const std::uint64_t id = vantage * 30 + host + 1;  // distinct /56 per host
    const IpAddress src = IpAddress::v6(0x2001'0db8'0113'0000ULL | (id << 8), 1);
    for (int i = 0; i < 20; ++i) packets.push_back(packet(src, 1000));
  }

  return stamp(std::move(packets));
}

/// Run one vantage's pipeline: traffic -> exact engine -> one epoch-wide
/// disjoint window -> snapshot frame written to `snap_path`. Also
/// persists the traffic as an HHT2 trace for the hhh-live replay.
void run_vantage_pipeline(std::vector<PacketRecord> traffic, const Hierarchy& hierarchy,
                          const std::string& snap_path, const std::string& trace_path) {
  write_binary_trace(trace_path, traffic);

  pipeline::PipelineConfig config;
  config.phi = 1.0;                 // the snapshot, not the local report, matters
  config.flush_open_window = true;  // one epoch = one (partial) window = one frame
  pipeline::Pipeline pipe(
      pipeline::make_span_source(traffic),
      pipeline::make_engine_stage(make_exact_engine(hierarchy)),
      pipeline::make_disjoint_policy(Duration::from_seconds(2 * kEpochSeconds)), config);
  pipe.add_sink(pipeline::make_snapshot_stream_sink(snap_path));
  pipe.run();
}

double scope_phi(double total) {
  return std::min(1.0, kThresholdBytes / std::max(total, 1.0));
}

/// Extract-or-report helper shared by both family passes: loads every
/// snapshot, reports local visibility of `attacker`, merges, and returns
/// whether the attacker was hidden locally yet revealed by the merge.
bool reveal(const std::vector<std::string>& paths, PrefixKey attacker) {
  std::vector<std::unique_ptr<HhhSummary>> summaries;
  bool hidden_everywhere = true;
  for (const std::string& path : paths) {
    summaries.push_back(wire::load_engine(wire::read_file(path)));
    HhhSummary& e = *summaries.back();
    const double total = e.total(e.watermark());
    const HhhSet local = e.report(e.watermark(), scope_phi(total));
    std::printf("%s: total %.2f MB, %zu local HHHs, reports %s? %s\n", path.c_str(),
                total / 1e6, local.size(),
                attacker.to_string().c_str(), local.contains(attacker) ? "YES" : "no");
    hidden_everywhere &= !local.contains(attacker);
  }

  for (std::size_t i = 1; i < summaries.size(); ++i) summaries[0]->merge_from(*summaries[i]);
  HhhSummary& merged = *summaries[0];
  const double merged_total = merged.total(merged.watermark());
  const HhhSet network = merged.report(merged.watermark(), scope_phi(merged_total));

  std::printf("\nmerged: total %.2f MB at threshold %.1f MB\n", merged_total / 1e6,
              kThresholdBytes / 1e6);
  for (const auto& item : network.items()) {
    std::printf("  %-22s  %9.2f MB\n", item.prefix.to_string().c_str(),
                static_cast<double>(item.conditioned_bytes) / 1e6);
  }

  const bool revealed = network.contains(attacker);
  std::printf("\n%s is %s network-wide%s\n\n", attacker.to_string().c_str(),
              revealed ? "an HHH" : "NOT an HHH",
              hidden_everywhere && revealed
                  ? " — hidden from every single vantage, revealed by the merge"
                  : "");
  return hidden_everywhere && revealed;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc >= 2 ? std::filesystem::path(argv[1])
                : std::filesystem::temp_directory_path() / "hhh_multi_vantage";
  std::filesystem::create_directories(dir);

  // --- the vantage "processes": one pipeline each, snapshot + trace ---------
  std::vector<std::string> v4_paths;
  for (std::size_t v = 0; v < 3; ++v) {
    const std::string stem = (dir / ("vantage" + std::to_string(v))).string();
    run_vantage_pipeline(vantage_traffic(v), Hierarchy::byte_granularity(),
                         stem + ".snap", stem + ".hht");
    v4_paths.push_back(stem + ".snap");
  }
  std::vector<std::string> v6_paths;
  for (std::size_t v = 0; v < 2; ++v) {
    const std::string stem = (dir / ("v6vantage" + std::to_string(v))).string();
    run_vantage_pipeline(v6_vantage_traffic(v), Hierarchy::v6_byte_granularity(),
                         stem + ".snap", stem + ".hht");
    v6_paths.push_back(stem + ".snap");
  }
  std::printf("wrote %zu vantage snapshots + replay traces (3 IPv4 + 2 IPv6) to %s\n\n",
              v4_paths.size() + v6_paths.size(), dir.string().c_str());

  // --- the "collector process" reads them back, one merge per family --------
  const bool v4_ok = reveal(v4_paths, *PrefixKey::parse("203.0.113.0/24"));
  const bool v6_ok = reveal(v6_paths, *PrefixKey::parse("2001:db8:113::/48"));
  return v4_ok && v6_ok ? 0 : 1;
}
