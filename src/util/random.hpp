// Deterministic random number generation for the trace generator and tests.
//
// All randomness in the library flows through Rng (xoshiro256**), seeded
// explicitly; no code calls std::random_device or wall-clock entropy. That
// makes every experiment in bench/ reproducible from the seed it prints.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace hhh {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality 64-bit PRNG.
///
/// Satisfies UniformRandomBitGenerator, so it can also drive <random>
/// distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEE1234ABCDEFULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  std::uint64_t operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n) without modulo bias (n > 0).
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Pareto variate: P(X > x) = (x_min/x)^alpha for x >= x_min.
  double pareto(double x_min, double alpha) noexcept;

  /// Bounded Pareto on [x_min, x_max] (heavy-tailed flow sizes without
  /// pathological outliers).
  double bounded_pareto(double x_min, double x_max, double alpha) noexcept;

  /// Log-normal variate with parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;

  /// Standard normal via Box–Muller (no state caching; simple and adequate).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Poisson variate (Knuth for small means, normal approximation above 64).
  std::uint64_t poisson(double mean) noexcept;

  /// Sample an index according to non-negative weights (linear scan; use
  /// DiscreteSampler for repeated sampling from the same distribution).
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Fork an independent generator (for parallel or per-component streams).
  Rng fork() noexcept { return Rng(next() ^ 0xA5A5'5A5A'DEAD'BEEFULL); }

  /// The raw xoshiro256** state, for checkpointing. Restoring it with
  /// set_state() resumes the exact output sequence — randomized engines
  /// serialize this so a deserialized engine replays identically.
  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

  /// Restore state captured by state().
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept { state_ = s; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Uniform level draws for the one-sampled-level update (RHHH, Memento).
/// One xoshiro output is split into two 32-bit halves, each mapped to
/// [0, n) by multiply-shift (Lemire reduction): two uniform draws per RNG
/// step and no rejection loop, with bias < 2^-27 for n <= 33. Lives for
/// one batch; a spare half left at the end of it is dropped.
class LevelDraws {
 public:
  /// Draws in [0, n) from `rng` (borrowed).
  LevelDraws(Rng& rng, std::uint64_t n) noexcept : rng_(rng), n_(n) {}

  /// The next uniform level.
  std::size_t next() noexcept {
    std::uint64_t half;
    if (have_spare_) {
      half = spare_;
      have_spare_ = false;
    } else {
      const std::uint64_t draw = rng_.next();
      half = draw & 0xFFFF'FFFFULL;
      spare_ = static_cast<std::uint32_t>(draw >> 32);
      have_spare_ = true;
    }
    return static_cast<std::size_t>((half * n_) >> 32);
  }

 private:
  Rng& rng_;
  std::uint64_t n_;
  std::uint32_t spare_ = 0;
  bool have_spare_ = false;
};

/// Alias-method sampler: O(n) setup, O(1) per sample from a fixed discrete
/// distribution. Used for Zipf-weighted address popularity.
class DiscreteSampler {
 public:
  DiscreteSampler() = default;
  explicit DiscreteSampler(std::span<const double> weights);

  std::size_t size() const noexcept { return prob_.size(); }
  bool empty() const noexcept { return prob_.empty(); }

  std::size_t sample(Rng& rng) const noexcept;

 private:
  std::vector<double> prob_;        // acceptance probability per slot
  std::vector<std::uint32_t> alias_;  // alias target per slot
};

}  // namespace hhh
