#include "util/simd.hpp"

#include <cstdlib>

#include "util/hash.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HHH_SIMD_X86 1
#endif

namespace hhh::simd {

namespace scalar {

void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = mix64(in[i]);
}

void mix64_xor_batch(std::uint64_t* acc, const std::uint64_t* in, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] = mix64(acc[i] ^ in[i]);
}

void shard_range_batch(const std::uint64_t* keys, std::size_t n_shards, std::uint32_t* out,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = mix64(keys[i]);
    out[i] = static_cast<std::uint32_t>(((h >> 32) * n_shards) >> 32);
  }
}

}  // namespace scalar

#ifdef HHH_SIMD_X86
namespace {

// 64-bit lane-wise multiply, synthesized from 32x32->64 products: AVX2 has
// no _mm256_mullo_epi64 (that is AVX-512DQ). a*b = lo(a)*lo(b)
// + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32), all mod 2^64.
__attribute__((target("avx2"))) inline __m256i mullo64(__m256i a, __m256i b) noexcept {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Four mix64 (Stafford variant 13) finalizers at once; the constants and
// shift amounts mirror util/hash.hpp exactly so the lanes are bit-identical
// to the scalar function.
__attribute__((target("avx2"))) inline __m256i mix64x4(__m256i x) noexcept {
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m256i m2 = _mm256_set1_epi64x(static_cast<long long>(0x94D049BB133111EBULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = mullo64(x, m1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = mullo64(x, m2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
  return x;
}

__attribute__((target("avx2"))) void mix64_batch_avx2(const std::uint64_t* in,
                                                      std::uint64_t* out,
                                                      std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), mix64x4(x));
  }
  for (; i < n; ++i) out[i] = mix64(in[i]);
}

__attribute__((target("avx2"))) void mix64_xor_batch_avx2(std::uint64_t* acc,
                                                          const std::uint64_t* in,
                                                          std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        mix64x4(_mm256_xor_si256(a, b)));
  }
  for (; i < n; ++i) acc[i] = mix64(acc[i] ^ in[i]);
}

__attribute__((target("avx2"))) void shard_range_batch_avx2(const std::uint64_t* keys,
                                                            std::size_t n_shards,
                                                            std::uint32_t* out,
                                                            std::size_t n) noexcept {
  const __m256i nv = _mm256_set1_epi64x(static_cast<long long>(n_shards));
  // Gather the low 32 bits of each 64-bit lane into the lower 128 bits.
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i h =
        mix64x4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)));
    // ((h >> 32) * n_shards) >> 32: both operands fit in 32 bits, so a
    // single 32x32->64 product per lane suffices.
    const __m256i prod = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), nv);
    const __m256i res = _mm256_srli_epi64(prod, 32);
    const __m256i packed = _mm256_permutevar8x32_epi32(res, pack_idx);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) {
    const std::uint64_t h = mix64(keys[i]);
    out[i] = static_cast<std::uint32_t>(((h >> 32) * n_shards) >> 32);
  }
}

// CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009), in the bit-reflected domain of poly 0xEDB88320. Each constant is
// a power of x mod P picked for the distance it folds across (512 bits for
// the four lanes, 128 for one lane, then 64), bit-reflected, as the paper
// tabulates them. A 128-bit accumulator folds forward by multiplying its
// low and high halves by a constant pair and xoring in the data that far
// ahead.
alignas(16) constexpr std::uint64_t kCrcFold512[2] = {0x0154442BD4, 0x01C6E41596};
alignas(16) constexpr std::uint64_t kCrcFold128[2] = {0x01751997D0, 0x00CCAA009E};
alignas(16) constexpr std::uint64_t kCrcFold64[2] = {0x0163CD6124, 0};
// Barrett reduction: P' (the polynomial, reflected) and mu = x^64 / P.
alignas(16) constexpr std::uint64_t kCrcBarrett[2] = {0x01DB710641, 0x01F7011641};

__attribute__((target("pclmul,sse4.1"))) inline __m128i load128(const std::uint64_t* k) noexcept {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i loadu128(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// acc folded forward by the distance `k` encodes, xored with `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold128(__m128i acc, __m128i k,
                                                                __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// The CRC register `crc` (pre-inverted) advanced over p[0, len); len is a
/// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(std::uint32_t crc,
                                                                   const std::uint8_t* p,
                                                                   std::size_t len) noexcept {
  // Four independent accumulators hide the multiplier's latency.
  __m128i x0 = _mm_xor_si128(loadu128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = loadu128(p + 16);
  __m128i x2 = loadu128(p + 32);
  __m128i x3 = loadu128(p + 48);
  p += 64;
  len -= 64;
  const __m128i k512 = load128(kCrcFold512);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold128(x0, k512, loadu128(p));
    x1 = fold128(x1, k512, loadu128(p + 16));
    x2 = fold128(x2, k512, loadu128(p + 32));
    x3 = fold128(x3, k512, loadu128(p + 48));
  }

  // Fold the four lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = load128(kCrcFold128);
  __m128i x = fold128(x0, k128, x1);
  x = fold128(x, k128, x2);
  x = fold128(x, k128, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold128(x, k128, loadu128(p));

  // 128 -> 64 bits, then 64 -> 32 significant bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), load128(kCrcFold64), 0x00));

  // Barrett-reduce to the 32-bit remainder.
  const __m128i barrett = load128(kCrcBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

}  // namespace
#endif  // HHH_SIMD_X86

bool have_avx2() noexcept {
#ifdef HHH_SIMD_X86
  // HHH_NO_SIMD forces the scalar path — used by the identical-output tests
  // to exercise dispatch and handy when bisecting a kernel suspicion.
  static const bool enabled =
      std::getenv("HHH_NO_SIMD") == nullptr && __builtin_cpu_supports("avx2") != 0;
  return enabled;
#else
  return false;
#endif
}

bool have_pclmul() noexcept {
#ifdef HHH_SIMD_X86
  static const bool enabled = std::getenv("HHH_NO_SIMD") == nullptr &&
                              __builtin_cpu_supports("pclmul") != 0 &&
                              __builtin_cpu_supports("sse4.1") != 0;
  return enabled;
#else
  return false;
#endif
}

std::size_t crc32_fold(std::uint32_t& crc, const std::uint8_t* data, std::size_t len) noexcept {
#ifdef HHH_SIMD_X86
  if (len >= 64 && have_pclmul()) {
    const std::size_t body = len & ~std::size_t{15};
    crc = crc32_clmul(crc, data, body);
    return body;
  }
#else
  (void)crc;
  (void)data;
  (void)len;
#endif
  return 0;
}

void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n) noexcept {
#ifdef HHH_SIMD_X86
  if (have_avx2()) {
    mix64_batch_avx2(in, out, n);
    return;
  }
#endif
  scalar::mix64_batch(in, out, n);
}

void mix64_xor_batch(std::uint64_t* acc, const std::uint64_t* in, std::size_t n) noexcept {
#ifdef HHH_SIMD_X86
  if (have_avx2()) {
    mix64_xor_batch_avx2(acc, in, n);
    return;
  }
#endif
  scalar::mix64_xor_batch(acc, in, n);
}

void shard_range_batch(const std::uint64_t* keys, std::size_t n_shards, std::uint32_t* out,
                       std::size_t n) noexcept {
#ifdef HHH_SIMD_X86
  if (have_avx2()) {
    shard_range_batch_avx2(keys, n_shards, out, n);
    return;
  }
#endif
  scalar::shard_range_batch(keys, n_shards, out, n);
}

}  // namespace hhh::simd
