// Deterministic seed derivation shared by everything that needs independent
// random streams from one master seed: the differential fuzzer and the base
// xoshiro256** generator's state expansion.
//
// Two primitives, both fixed-width integer arithmetic only, so a seed
// reproduces byte-identically on every platform and standard library (unlike
// std::mt19937 seeding or std::uniform_int_distribution, whose outputs are
// implementation-defined):
//
//   * splitmix64  — Steele/Lea/Flood's 64-bit mixer; the canonical way to
//                   expand one seed word into generator state;
//   * derive_seed — keyed stream split: derive_seed(seed, k) for distinct k
//                   yields statistically independent sub-seeds, so parallel
//                   fuzz jobs can each own a stream without coordinating.
#pragma once

#include <cstdint>

namespace pdat::util {

/// Advances `state` and returns the next splitmix64 output.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives the sub-seed of stream `stream` from a master seed. Distinct
/// streams give independent sequences; the same (seed, stream) pair always
/// gives the same sub-seed, on every platform.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed;
  const std::uint64_t a = splitmix64(s);
  s = a ^ (stream * 0xd6e8feb86659fd93ULL + 0x2545f4914f6cdd1dULL);
  return splitmix64(s);
}

}  // namespace pdat::util
