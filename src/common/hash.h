// FNV-1a hashing used for coverage-edge identifiers, plus the word-wide ChecksumBytes for
// payload CRCs and flash and RAM content checksums. Edge IDs must be
// stable across runs (corpus entries reference them), so we use a fixed, well-known hash
// rather than std::hash, whose value is implementation-defined.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

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

inline uint64_t ChecksumBytes(const uint8_t* data, size_t size) {
  constexpr uint64_t kMulA = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kMulB = 0xc2b2ae3d27d4eb4fULL;
  auto round = [](uint64_t acc, uint64_t word) {
    acc += word * kMulB;
    acc = (acc << 31) | (acc >> 33);
    return acc * kMulA;
  };
  auto load = [](const uint8_t* p) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
  };
  uint64_t lanes[4] = {kMulA, kMulB, kFnvOffsetBasis, kFnvPrime};
  size_t i = 0;
  for (; size - i >= 32; i += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      lanes[lane] = round(lanes[lane], load(data + i + 8 * lane));
    }
  }
  uint64_t hash = size;
  for (uint64_t lane : lanes) {
    hash = round(hash, lane);
  }
  for (; size - i >= 8; i += 8) {
    hash = round(hash, load(data + i));
  }
  if (i < size) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, size - i);
    hash = round(hash, tail);
  }
  // Final avalanche (the MurmurHash3 fmix64 finaliser), also a bijection.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  return hash ^ (hash >> 33);
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
