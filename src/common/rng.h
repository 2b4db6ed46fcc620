// Deterministic pseudo-random source for the fuzzing engine.
//
// Reproducibility matters for a fuzzer reproduction: every campaign in bench/ is seeded,
// and the paper's "5 repetitions" become 5 seeds. xoshiro256** gives high-quality 64-bit
// output; SplitMix64 expands the single user seed into the 4-word state.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eof {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value (xoshiro256**). Inline: image builds draw one per payload byte.
  uint64_t Next() {
    uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). bound == 0 returns 0.
  uint64_t Below(uint64_t bound);

  // Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t Range(uint64_t lo, uint64_t hi);

  // True with probability num/den. Requires den > 0.
  bool Chance(uint32_t num, uint32_t den);

  // True with probability 1/2.
  bool CoinFlip() { return (Next() & 1) != 0; }

  // Uniform index into a container of the given size. Requires size > 0.
  size_t Index(size_t size) { return static_cast<size_t>(Below(size)); }

  // Weighted choice: returns an index i with probability weights[i]/sum(weights).
  // All-zero weights fall back to uniform. Requires weights non-empty.
  size_t WeightedIndex(const std::vector<uint64_t>& weights);

  // A "mostly small, occasionally huge" magnitude, useful for fuzzing lengths/counts:
  // geometric-ish distribution capped at max.
  uint64_t BiasedSize(uint64_t max);

  // One of the classic interesting integer boundary values fit into `bits` (8/16/32/64).
  uint64_t InterestingInt(unsigned bits);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace eof

#endif  // SRC_COMMON_RNG_H_
