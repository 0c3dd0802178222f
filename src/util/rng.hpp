// Deterministic xoshiro128** RNG.
//
// Workload generators and synthetic data initialisation must be reproducible
// across runs and platforms, so we avoid std::mt19937's distribution
// non-portability and carry our own minimal generator + helpers.
#pragma once

#include <cstdint>
#include <cassert>

#include "util/bitops.hpp"

namespace bsp {

class Rng {
 public:
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull) {
    // splitmix64 to spread the seed across the state words.
    u64 z = seed;
    for (auto& w : state_) {
      z += 0x9e3779b97f4a7c15ull;
      u64 x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      w = static_cast<u32>((x ^ (x >> 31)) & 0xffffffffull);
      if (w == 0) w = 1;  // all-zero state is forbidden
    }
  }

  u32 next() {
    const u32 result = rotl(state_[1] * 5, 7) * 9;
    const u32 t = state_[1] << 9;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 11);
    return result;
  }

  // Uniform in [0, bound). Uses rejection to avoid modulo bias.
  u32 below(u32 bound) {
    assert(bound > 0);
    const u32 threshold = (-bound) % bound;
    for (;;) {
      const u32 r = next();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform in [lo, hi] inclusive.
  u32 range(u32 lo, u32 hi) {
    assert(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  // True with probability num/den.
  bool chance(u32 num, u32 den) {
    assert(den > 0 && num <= den);
    return below(den) < num;
  }

 private:
  static constexpr u32 rotl(u32 x, int k) {
    return (x << k) | (x >> (32 - k));
  }
  u32 state_[4];
};

}  // namespace bsp
