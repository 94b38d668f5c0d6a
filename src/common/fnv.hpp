// FNV-1a over 64-bit words: the step of the structure hash (the artifact
// and plan-cache key, analysis/features.hpp), shared by the pass that checks
// an input matrix and hashes it at once (sparse/triangular.hpp).
#pragma once

#include <cstdint>

namespace blocktri {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
inline constexpr std::uint64_t kFnvPrime6 =  // P^6 mod 2^64
    kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

/// One FNV-1a step per byte of v, low byte first; the fixed 8-byte width
/// keeps the hash independent of the platform's index_t/offset_t sizes. XOR
/// with a zero byte is the identity, so the zero high bytes of a small value
/// fold into one multiply by a power of the prime — the same hash, bit for
/// bit, at three multiplies instead of eight for any index below 2^24: the
/// third byte's step and the five zero bytes' steps are one multiply by P^6.
inline void fnv1a_u64(std::uint64_t* h, std::uint64_t v) {
  if (v < (std::uint64_t{1} << 24)) {
    *h = (*h ^ (v & 0xffu)) * kFnvPrime;
    *h = (*h ^ ((v >> 8) & 0xffu)) * kFnvPrime;
    *h = (*h ^ (v >> 16)) * kFnvPrime6;
    return;
  }
  for (int b = 0; b < 8; ++b) {
    *h ^= (v >> (8 * b)) & 0xffu;
    *h *= kFnvPrime;
  }
}

}  // namespace blocktri
