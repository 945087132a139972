/// \file
/// Summary statistics, the host fingerprint and JSON rendering for the
/// bench's results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hhh::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The percentile rule: the p-quantile (0 < p < 1) of n samples is
/// reported only when at least ten samples lie beyond it, n (1 - p) >= 10.
bool percentile_supported(std::size_t n, double p);

/// The p-quantile of `samples` (linear interpolation between order
/// statistics); NaN when empty.
double quantile(std::vector<double> samples, double p);

/// quantile(samples, 0.5).
double median(std::vector<double> samples);

/// Where a result was measured.
struct Host {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string simd;  ///< "avx2" or "scalar" (HHH_NO_SIMD forces scalar)
  std::string compiler;
  std::string build_type;
  std::string git_sha;
};

/// This host and build; `git_sha` comes from the caller ("unknown" outside
/// a git checkout).
Host host_fingerprint(const std::string& git_sha);

/// A JSON string literal for `s`.
std::string json_string(const std::string& s);

/// A JSON number with every digit of `v` (shortest round-trip form);
/// "null" for NaN or infinity.
std::string json_number(double v);

}  // namespace hhh::e2e
