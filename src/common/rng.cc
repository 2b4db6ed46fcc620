#include "src/common/rng.h"

#include <array>

namespace eof {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Below(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

uint64_t Rng::Range(uint64_t lo, uint64_t hi) {
  uint64_t span = hi - lo;
  if (span == UINT64_MAX) {
    return Next();
  }
  return lo + Below(span + 1);
}

bool Rng::Chance(uint32_t num, uint32_t den) { return Below(den) < num; }

size_t Rng::WeightedIndex(const std::vector<uint64_t>& weights) {
  uint64_t total = 0;
  for (uint64_t w : weights) {
    total += w;
  }
  if (total == 0) {
    return Index(weights.size());
  }
  uint64_t pick = Below(total);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (pick < weights[i]) {
      return i;
    }
    pick -= weights[i];
  }
  return weights.size() - 1;
}

uint64_t Rng::BiasedSize(uint64_t max) {
  if (max == 0) {
    return 0;
  }
  // Halve the ceiling with probability 1/2 each round: most results are small.
  uint64_t ceiling = max;
  while (ceiling > 1 && CoinFlip()) {
    ceiling /= 2;
  }
  return Below(ceiling + 1);
}

uint64_t Rng::InterestingInt(unsigned bits) {
  static const std::array<uint64_t, 14> kValues = {
      0ULL,      1ULL,          7ULL,          16ULL,         32ULL,
      64ULL,     100ULL,        127ULL,        128ULL,        255ULL,
      4096ULL,   0x7fffffffULL, 0x80000000ULL, 0xffffffffULL,
  };
  uint64_t v = kValues[Index(kValues.size())];
  if (CoinFlip()) {
    v = ~v;  // also exercise sign-extension style extremes
  }
  if (bits >= 64) {
    return v;
  }
  return v & ((1ULL << bits) - 1);
}

}  // namespace eof
