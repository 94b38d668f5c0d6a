// The structure hash's fold (the artifact and plan-cache key,
// analysis/features.hpp), shared by the pass that checks an input matrix
// and hashes it at once (sparse/triangular.hpp).
#pragma once

#include <bit>
#include <cstdint>

namespace blocktri {

/// Folds a sequence of 64-bit values into one 64-bit hash on four
/// independent lanes: value i goes to lane i mod 4 through xxHash64's round
/// acc = rotl(acc + v·P2, 31)·P1, so no lane's dependency chain is longer
/// than one round per four values and consecutive values never wait on
/// each other's multiplies.
/// finish() merges the lanes as xxHash64 does, adds the value count and
/// avalanches, so sequences of different lengths — fewer values than lanes
/// included — hash apart. A value is folded arithmetically, never as bytes:
/// the hash does not depend on the width or byte order it was stored in.
/// Not cryptographic; callers that key on it compare the structure itself
/// before trusting a match.
class LaneHash {
 public:
  void fold(std::uint64_t v) {
    // The lane due next is always a_: rotating the four registers after
    // each round keeps every lane in a register across any loop shape.
    const std::uint64_t next = round(a_, v);
    a_ = b_;
    b_ = c_;
    c_ = d_;
    d_ = next;
    ++count_;
  }

  std::uint64_t finish() const {
    // After count_ folds a_ holds lane count_ mod 4: rotate back so that
    // l0..l3 are lanes 0..3.
    std::uint64_t l0 = a_, l1 = b_, l2 = c_, l3 = d_;
    for (std::uint64_t s = count_ & 3u; s != 0; --s) {
      const std::uint64_t t = l3;
      l3 = l2;
      l2 = l1;
      l1 = l0;
      l0 = t;
    }
    std::uint64_t h = std::rotl(l0, 1) + std::rotl(l1, 7) +
                      std::rotl(l2, 12) + std::rotl(l3, 18);
    for (const std::uint64_t l : {l0, l1, l2, l3})
      h = (h ^ round(0, l)) * kP1 + kP4;
    h += count_;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;

  static std::uint64_t round(std::uint64_t acc, std::uint64_t v) {
    return std::rotl(acc + v * kP2, 31) * kP1;
  }

  // xxHash64's lane seeds at seed 0: P1 + P2, P2, 0, -P1.
  std::uint64_t a_ = kP1 + kP2, b_ = kP2, c_ = 0, d_ = 0 - kP1;
  std::uint64_t count_ = 0;
};

}  // namespace blocktri
