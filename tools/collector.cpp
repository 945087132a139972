// hhh-collector — the multi-vantage aggregation point (offline mode).
//
// Independent vantage-point processes (border routers, PoPs, taps) each
// run an HhhEngine over their local slice of the traffic and ship a
// snapshot (wire/snapshot.hpp) per measurement epoch. This tool folds N
// such snapshots through the same MergeLedger (service/merge.hpp) the
// hhh-collectord daemon uses — one epoch-merge implementation, two
// transports, so the offline and streaming paths cannot drift — and
// reports:
//
//   * the merged (network-wide) HHH set per engine-compatibility group
//     (mixed IPv4/IPv6 fleets merge and report separately);
//   * the *hidden* HHHs: prefixes heavy network-wide that no single
//     vantage reported — the distributed analogue of the paper's
//     window-hidden HHHs (traffic split across observation scopes falls
//     below every local threshold yet crosses the global one).
//
// Inputs are *frame streams*: each file (and stdin) may carry one frame
// or many concatenated frames — e.g. the per-window stream a windowed
// hhh-live replay emits. Every frame is treated as one vantage scope, so
// "hidden" keeps its meaning under continuous reporting: heavy globally,
// under the threshold in every single reported epoch.
//
// Usage:
//   hhh-collector [options] snapshots.bin...
//   hhh-live ... --out=- | hhh-collector [options] --stdin
//
// Options:
//   --phi=<f>              relative threshold, applied per scope (default 0.05)
//   --threshold-bytes=<n>  absolute threshold T in bytes; each scope then
//                          uses phi = T / scope_total. This is the mode in
//                          which distributed hidden HHHs exist: a source
//                          sending T/3 through each of 3 vantages is under
//                          T everywhere locally but over T globally.
//   --out=<path>           also write the merged engine as a snapshot, so
//                          collectors compose into aggregation trees
//   --stdin                read concatenated snapshot frames from stdin
//   --expect-hidden=<p>    (repeatable) require prefix p in the hidden set;
//                          exit 4 otherwise — the CI assertion the smoke
//                          fixtures use
//   --metrics-out=<path>   after the run, dump the process metric registry
//                          (decoder/merge counters) as JSON to this file
//
// Exit codes: 0 success, 1 usage error, 2 I/O or malformed snapshot,
// 3 incompatible snapshots (params mismatch between vantages),
// 4 an --expect-hidden prefix was not revealed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hhh_types.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pipeline/snapshot_stream.hpp"
#include "service/merge.hpp"
#include "wire/snapshot.hpp"
#include "wire/wire.hpp"

namespace {

using namespace hhh;

struct Options {
  service::Thresholds thresholds;
  std::string out_path;
  std::string metrics_out;
  bool from_stdin = false;
  std::vector<std::string> files;
  std::vector<PrefixKey> expect_hidden;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: hhh-collector [--phi=F] [--threshold-bytes=N] [--out=PATH]\n"
               "                     [--metrics-out=PATH] [--expect-hidden=PREFIX]...\n"
               "                     (snapshots.bin... | --stdin)\n"
               "Merges vantage-point snapshot frame streams and reports network-wide +\n"
               "hidden HHHs.\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg.rfind("--phi=", 0) == 0) {
      opt.thresholds.phi = std::atof(arg.c_str() + 6);
      if (opt.thresholds.phi <= 0.0 || opt.thresholds.phi > 1.0) return false;
    } else if (arg.rfind("--threshold-bytes=", 0) == 0) {
      opt.thresholds.threshold_bytes = std::atof(arg.c_str() + 18);
      if (opt.thresholds.threshold_bytes <= 0.0) return false;
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = arg.substr(6);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      opt.metrics_out = arg.substr(14);
      if (opt.metrics_out.empty()) return false;
    } else if (arg.rfind("--expect-hidden=", 0) == 0) {
      const auto prefix = PrefixKey::parse(arg.substr(16));
      if (!prefix) return false;
      opt.expect_hidden.push_back(*prefix);
    } else if (arg == "--stdin") {
      opt.from_stdin = true;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      opt.files.push_back(arg);
    }
  }
  // Exactly one input source: files XOR stdin.
  return opt.from_stdin ? opt.files.empty() : !opt.files.empty();
}

void print_set(const char* heading, const HhhSet& set) {
  std::printf("%s (total %llu B, threshold %llu B, %zu HHHs)\n", heading,
              static_cast<unsigned long long>(set.total_bytes),
              static_cast<unsigned long long>(set.threshold_bytes), set.size());
  for (const auto& item : set.items()) {
    std::printf("  %-18s  total %12llu B  conditioned %12llu B\n",
                item.prefix.to_string().c_str(),
                static_cast<unsigned long long>(item.total_bytes),
                static_cast<unsigned long long>(item.conditioned_bytes));
  }
}

int run(const Options& opt) {
  // ---- decode every vantage scope -----------------------------------------
  // Each input is a frame stream (pipeline/snapshot_stream.hpp): one frame
  // per vantage scope. A windowed hhh-live replay contributes one scope
  // per closed window.
  std::vector<service::Scope> scopes;
  try {
    const auto decode_stream = [&scopes](pipeline::SnapshotFrameReader reader,
                                         const std::string& origin) {
      const std::size_t before = scopes.size();
      while (const auto frame = reader.next()) {
        const std::string label =
            origin + "[" + std::to_string(scopes.size() - before) + "]";
        scopes.push_back(service::decode_scope(*frame, label));
      }
      if (scopes.size() == before + 1) scopes.back().label = origin;  // common case
    };
    if (opt.from_stdin) {
      decode_stream(pipeline::SnapshotFrameReader::from_stream(stdin), "stdin");
    } else {
      for (const std::string& path : opt.files) {
        decode_stream(pipeline::SnapshotFrameReader::from_file(path), path);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (scopes.empty()) {
    std::fprintf(stderr, "error: no snapshot frames found\n");
    return 2;
  }
  const auto is_engine = [](const service::Scope& s) {
    return dynamic_cast<const HhhEngine*>(s.summary.get()) != nullptr;
  };
  const bool engines = is_engine(scopes.front());
  for (const service::Scope& s : scopes) {
    if (is_engine(s) != engines) {
      std::fprintf(stderr, "error: cannot mix engine and sliding-window snapshots\n");
      return 3;
    }
  }

  // ---- fold through the shared ledger -------------------------------------
  // fold() extracts each scope's local view before merging it, exactly
  // like the daemon does per epoch.
  service::MergeLedger ledger(opt.thresholds);
  std::printf("== %zu vantage point(s) ==\n", scopes.size());
  try {
    for (service::Scope& scope : scopes) {
      const std::string label = scope.label;
      const HhhSet local = ledger.fold(std::move(scope));
      std::printf("%-28s  total %14llu B   %3zu local HHHs\n", label.c_str(),
                  static_cast<unsigned long long>(local.total_bytes), local.size());
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: incompatible snapshots: %s\n", e.what());
    return 3;
  }

  service::LedgerReport report = ledger.report();
  for (const service::GroupReport& group : report.groups) {
    std::printf("\n");
    const std::string heading =
        report.groups.size() == 1
            ? std::string("== merged network-wide HHH set ==")
            : "== merged network-wide HHH set [" + group.key + "] ==";
    print_set(heading.c_str(), group.merged);
  }

  std::printf("\n== hidden HHHs (no single vantage reported them) ==\n");
  if (report.hidden.empty()) {
    std::printf("  none\n");
  } else {
    for (const PrefixKey& p : report.hidden) {
      std::printf("  %s\n", p.to_string().c_str());
    }
  }

  int exit_code = 0;
  for (const PrefixKey& expected : opt.expect_hidden) {
    const bool found =
        std::any_of(report.hidden.begin(), report.hidden.end(),
                    [&](const PrefixKey& p) { return p == expected; });
    if (!found) {
      std::fprintf(stderr, "error: expected hidden HHH %s was not revealed\n",
                   expected.to_string().c_str());
      exit_code = 4;
    }
  }

  if (!opt.out_path.empty()) {
    // Concatenated frames, one per merged group — the same self-delimiting
    // stream format --stdin consumes, so collectors still compose into
    // aggregation trees with mixed-family fleets.
    std::vector<std::uint8_t> out_bytes;
    for (const auto& frame : ledger.save_group_frames()) {
      out_bytes.insert(out_bytes.end(), frame.begin(), frame.end());
    }
    wire::write_file(opt.out_path, out_bytes);
    std::printf("\nwrote merged snapshot(s) to %s\n", opt.out_path.c_str());
  }

  if (!opt.metrics_out.empty()) {
    obs::write_json_file(opt.metrics_out, obs::MetricsRegistry::process().snapshot());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 1;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
