#include "src/fuzz/byte_mutator.h"

#include <algorithm>

namespace eof {
namespace fuzz {

std::vector<uint8_t> ByteMutator::Random(Rng& rng) const {
  std::vector<uint8_t> out(rng.BiasedSize(max_len_));
  for (auto& byte : out) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

std::vector<uint8_t> ByteMutator::Mutate(const std::vector<uint8_t>& seed, Rng& rng) const {
  std::vector<uint8_t> out = seed;
  if (out.empty()) {
    return Random(rng);
  }
  uint64_t rounds = 1 + rng.Below(8);
  for (uint64_t round = 0; round < rounds; ++round) {
    // A delete-block round can empty `out`. Cases 0-3 then still draw exactly what
    // they draw on a non-empty buffer, in the same order, and only skip the access:
    // the draws keep the stream every later mutation depends on in place.
    switch (rng.Below(8)) {
      case 0: {  // bit flip
        size_t pos = rng.Index(out.size());
        uint8_t bit = static_cast<uint8_t>(1u << rng.Below(8));
        if (!out.empty()) {
          out[pos] ^= bit;
        }
        break;
      }
      case 1: {  // random byte
        uint8_t value = static_cast<uint8_t>(rng.Next());
        size_t pos = rng.Index(out.size());
        if (!out.empty()) {
          out[pos] = value;
        }
        break;
      }
      case 2: {  // interesting 8/16-bit value
        size_t pos = rng.Index(out.size());
        uint64_t value = rng.InterestingInt(16);
        if (!out.empty()) {
          out[pos] = static_cast<uint8_t>(value);
        }
        if (pos + 1 < out.size() && rng.CoinFlip()) {
          out[pos + 1] = static_cast<uint8_t>(value >> 8);
        }
        break;
      }
      case 3: {  // byte arithmetic
        size_t pos = rng.Index(out.size());
        uint64_t delta = rng.Range(1, 32);
        bool up = rng.CoinFlip();
        if (!out.empty()) {
          out[pos] = static_cast<uint8_t>(out[pos] + delta * (up ? 1 : -1));
        }
        break;
      }
      case 4: {  // delete block
        if (out.size() > 1) {
          size_t start = rng.Index(out.size());
          size_t len = 1 + rng.Below(std::min<uint64_t>(out.size() - start, 16));
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(start),
                    out.begin() + static_cast<std::ptrdiff_t>(start + len));
        }
        break;
      }
      case 5: {  // insert random block
        if (out.size() < max_len_) {
          size_t pos = rng.Index(out.size() + 1);
          size_t len = 1 + rng.Below(std::min<uint64_t>(max_len_ - out.size(), 16));
          std::vector<uint8_t> block(len);
          for (auto& byte : block) {
            byte = static_cast<uint8_t>(rng.Next());
          }
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), block.begin(),
                     block.end());
        }
        break;
      }
      case 6: {  // duplicate block
        if (!out.empty() && out.size() < max_len_) {
          size_t start = rng.Index(out.size());
          size_t len =
              1 + rng.Below(std::min<uint64_t>({out.size() - start, max_len_ - out.size(),
                                                16}));
          std::vector<uint8_t> block(out.begin() + static_cast<std::ptrdiff_t>(start),
                                     out.begin() + static_cast<std::ptrdiff_t>(start + len));
          size_t pos = rng.Index(out.size() + 1);
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), block.begin(),
                     block.end());
        }
        break;
      }
      default: {  // truncate or extend
        if (rng.CoinFlip() && out.size() > 1) {
          out.resize(1 + rng.Below(out.size()));
        } else if (out.size() < max_len_) {
          size_t add = 1 + rng.Below(std::min<uint64_t>(max_len_ - out.size(), 32));
          for (size_t i = 0; i < add; ++i) {
            out.push_back(static_cast<uint8_t>(rng.Next()));
          }
        }
        break;
      }
    }
  }
  if (out.size() > max_len_) {
    out.resize(max_len_);
  }
  return out;
}

std::vector<uint8_t> ByteMutator::Splice(const std::vector<uint8_t>& a,
                                         const std::vector<uint8_t>& b, Rng& rng) const {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  size_t head = rng.Index(a.size() + 1);
  size_t tail = rng.Index(b.size() + 1);
  std::vector<uint8_t> out(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(head));
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(tail), b.end());
  if (out.size() > max_len_) {
    out.resize(max_len_);
  }
  return out;
}

}  // namespace fuzz
}  // namespace eof
