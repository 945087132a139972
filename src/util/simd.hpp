// SIMD batch kernels for the branch-free per-packet hot loops.
//
// The ingestion paths (sharded partition hashing, exact leaf coalescing)
// spend most of their arithmetic in chains of mix64 finalizers — 64-bit
// multiplies and xor-shifts with no data-dependent branches, i.e. exactly
// the shape that vectorizes across a batch. This module provides the
// batch primitives those paths compose:
//
//  * mix64_batch       — out[i] = mix64(in[i])
//  * mix64_xor_batch   — acc[i] = mix64(acc[i] ^ in[i])  (hash chaining)
//  * shard_range_batch — out[i] = ((mix64(key[i]) >> 32) * n) >> 32
//                        (ShardedHhhEngine's multiply-shift shard pick)
//
// Every kernel has an AVX2 implementation (runtime-dispatched via cpuid,
// so the binary still runs on any x86-64) and a scalar fallback that IS
// the specification: the dispatching entry points are bit-identical to
// the `scalar::` versions on every input, which tests/util_simd_test.cpp
// pins on random batches. Non-x86 builds compile the scalar path only.
//
// One more kernel serves the wire layer: crc32_fold, the PCLMULQDQ
// folding body of wire::crc32. Its specification and fallback is the
// slice-by-8 table loop in wire::crc32 itself, which
// tests/wire_snapshot_test.cpp pins against a bytewise CRC-32 on both
// dispatch paths. HHH_NO_SIMD set in the environment forces every
// fallback.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hhh::simd {

/// True when the AVX2 kernels are selected on this CPU (cached cpuid).
bool have_avx2() noexcept;

/// True when the PCLMULQDQ CRC-32 kernel is selected on this CPU (cached
/// cpuid; needs PCLMUL and SSE4.1).
bool have_pclmul() noexcept;

/// Advance a CRC-32 register (reflected poly 0xEDB88320, held inverted as
/// wire::crc32 holds it) over the longest prefix of `data` whose length
/// is a multiple of 16, by carry-less-multiply folding, and return that
/// prefix's length. Returns 0 and leaves `crc` alone when `len < 64` or
/// the kernel is not selected: the caller's table loop covers the rest.
std::size_t crc32_fold(std::uint32_t& crc, const std::uint8_t* data, std::size_t len) noexcept;

/// out[i] = mix64(in[i]) for i in [0, n). In-place (out == in) allowed.
void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n) noexcept;

/// acc[i] = mix64(acc[i] ^ in[i]) — one chaining step of FlowKey::key()
/// and the 128-bit key hashes.
void mix64_xor_batch(std::uint64_t* acc, const std::uint64_t* in, std::size_t n) noexcept;

/// out[i] = ((mix64(keys[i]) >> 32) * n_shards) >> 32 — the multiply-shift
/// range reduction of ShardedHhhEngine::shard_of, batched. n_shards must
/// be nonzero and fit in 32 bits.
void shard_range_batch(const std::uint64_t* keys, std::size_t n_shards,
                       std::uint32_t* out, std::size_t n) noexcept;

/// Reference implementations (plain loops over util/hash's mix64). The
/// dispatching functions above must match these bit-for-bit; the
/// identical-output tests sweep both against each other.
namespace scalar {
/// Scalar specification of simd::mix64_batch.
void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n) noexcept;
/// Scalar specification of simd::mix64_xor_batch.
void mix64_xor_batch(std::uint64_t* acc, const std::uint64_t* in, std::size_t n) noexcept;
/// Scalar specification of simd::shard_range_batch.
void shard_range_batch(const std::uint64_t* keys, std::size_t n_shards,
                       std::uint32_t* out, std::size_t n) noexcept;
}  // namespace scalar

}  // namespace hhh::simd
