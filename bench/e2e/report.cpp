#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "util/simd.hpp"

#ifndef HHH_E2E_BUILD_TYPE
#define HHH_E2E_BUILD_TYPE "unknown"
#endif

namespace hhh::e2e {

bool percentile_supported(std::size_t n, double p) {
  // Compare in whole samples: n (1 - p) >= 10 without rounding surprises
  // (0.9 is not exact in binary).
  return static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-9;
}

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double h = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

Host host_fingerprint(const std::string& git_sha) {
  Host h;
  h.hardware_threads = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      const auto start =
          colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
      if (start != std::string::npos) h.cpu_model = line.substr(start);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.simd = simd::have_avx2() ? "avx2" : "scalar";
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = HHH_E2E_BUILD_TYPE;
  h.git_sha = git_sha;
  return h;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace hhh::e2e
