// FNV-1a hashing used for coverage-edge identifiers, plus the word-wide ChecksumBytes for
// payload CRCs and flash and RAM content checksums. Edge IDs must be
// stable across runs (corpus entries reference them), so we use a fixed, well-known hash
// rather than std::hash, whose value is implementation-defined.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace eof {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr uint64_t Fnv1a(std::string_view data, uint64_t seed = kFnvOffsetBasis) {
  uint64_t hash = seed;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

constexpr uint64_t Fnv1aBytes(const uint8_t* data, size_t size,
                              uint64_t seed = kFnvOffsetBasis) {
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// Content checksum of a flash or RAM window, at memory speed. Four independent lanes
// each take every fourth 8-byte word through an xxHash64-style round, so the loop is not
// one serial multiply per byte as Fnv1aBytes is. Every round and every fold below is a
// bijection of the word or lane it takes, so two windows of one length that differ in a
// single 8-byte word (any one-byte flip, say) always checksum differently.
//
// Byte order: words load in host byte order, and the value lands in image bytes (every
// payload header's CRC). So the host must be little-endian; then a word is its 8 bytes
// read little-endian and the checksum is the same on every host. Target RAM relies on
// the same: it holds words little-endian, and the board copies host words in and out.
static_assert(std::endian::native == std::endian::little);

// The checksum fed in pieces: Update with consecutive runs of the window, then Finish.
// Any split of a window gives the value ChecksumBytes gives for it whole, so flash can
// hash its pages where they live instead of gathering them first.
class ChecksumStream {
 public:
  void Update(const uint8_t* data, size_t size) {
    if (size == 0) {
      return;  // `data` may be null
    }
    total_ += size;
    if (pending_size_ != 0) {
      const size_t take = std::min(size, sizeof pending_ - pending_size_);
      std::memcpy(pending_ + pending_size_, data, take);
      pending_size_ += take;
      data += take;
      size -= take;
      if (pending_size_ < sizeof pending_) {
        return;
      }
      Block(lanes_, pending_);
      pending_size_ = 0;
    }
    // Lanes in locals, so the loop keeps them in registers.
    uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
    size_t i = 0;
    for (; size - i >= sizeof pending_; i += sizeof pending_) {
      Block(lanes, data + i);
    }
    std::copy_n(lanes, 4, lanes_);
    pending_size_ = size - i;
    std::memcpy(pending_, data + i, pending_size_);
  }

  uint64_t Finish() const {
    uint64_t hash = total_;
    for (uint64_t lane : lanes_) {
      hash = Round(hash, lane);
    }
    size_t i = 0;
    for (; pending_size_ - i >= 8; i += 8) {
      hash = Round(hash, Load(pending_ + i));
    }
    if (i < pending_size_) {
      uint64_t tail = 0;
      std::memcpy(&tail, pending_ + i, pending_size_ - i);
      hash = Round(hash, tail);
    }
    // Final avalanche (the MurmurHash3 fmix64 finaliser), also a bijection.
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ULL;
    return hash ^ (hash >> 33);
  }

 private:
  static constexpr uint64_t kMulA = 0x9e3779b185ebca87ULL;
  static constexpr uint64_t kMulB = 0xc2b2ae3d27d4eb4fULL;

  static uint64_t Round(uint64_t acc, uint64_t word) {
    acc += word * kMulB;
    acc = (acc << 31) | (acc >> 33);
    return acc * kMulA;
  }
  static uint64_t Load(const uint8_t* p) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
  }
  // One 32-byte block: each lane takes its 8-byte word.
  static void Block(uint64_t* lanes, const uint8_t* block) {
    for (int lane = 0; lane < 4; ++lane) {
      lanes[lane] = Round(lanes[lane], Load(block + 8 * lane));
    }
  }

  uint64_t lanes_[4] = {kMulA, kMulB, kFnvOffsetBasis, kFnvPrime};
  uint64_t total_ = 0;
  uint8_t pending_[32];  // the bytes past the last whole block
  size_t pending_size_ = 0;
};

// The checksum of one whole window.
inline uint64_t ChecksumBytes(const uint8_t* data, size_t size) {
  ChecksumStream stream;
  stream.Update(data, size);
  return stream.Finish();
}

// Mixes an integer into an existing hash (order-sensitive: the multiply precedes the
// xor, so HashCombine(a, b) != HashCombine(b, a) in general).
constexpr uint64_t HashCombine(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash *= kFnvPrime;
    hash ^= (value >> (i * 8)) & 0xff;
  }
  return hash;
}

// Derives an independent RNG seed for stream `stream` of a campaign seeded with
// `base_seed` (repetition indices, farm worker lanes). Hashing both words avoids
// the collisions of additive schemes, where adjacent base seeds and strides land
// on the same derived value (e.g. base+rep*K collides base b, rep r with base
// b+K, rep r-1).
constexpr uint64_t DeriveSeedStream(uint64_t base_seed, uint64_t stream) {
  return HashCombine(HashCombine(kFnvOffsetBasis, base_seed), stream);
}

}  // namespace eof

#endif  // SRC_COMMON_HASH_H_
