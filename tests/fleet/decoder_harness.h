// Havoc decoder harness shared by the wire-format tests (fleet messages, coverage
// blobs, agent programs): byte-level mutations of a golden encoding must never
// crash a decoder, and whatever a decoder accepts must survive a re-encode.

#ifndef TESTS_FLEET_DECODER_HARNESS_H_
#define TESTS_FLEET_DECODER_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/fuzz/byte_mutator.h"

namespace eof {

// Decodes a payload and re-encodes the decoded message.
using RoundTripFn =
    std::function<Result<std::vector<uint8_t>>(const std::vector<uint8_t>&)>;

// For a fleet message: its Decode* function, then its Encode overload.
template <typename Msg>
RoundTripFn DecodeThenEncode(Result<Msg> (*decode)(const std::vector<uint8_t>&)) {
  return [decode](const std::vector<uint8_t>& payload) -> Result<std::vector<uint8_t>> {
    ASSIGN_OR_RETURN(Msg msg, decode(payload));
    return Encode(msg);
  };
}

// Runs 100k ByteMutator havoc inputs derived from `golden` through
// `round_trip`. Every input either decodes or returns an error (sanitizer
// builds abort on anything else), and whatever decodes re-encodes to bytes that
// decode and re-encode identically. Some inputs must decode and some must not,
// or the mutator is not reaching the decoder's edges.
inline void ExpectDecoderSurvivesHavoc(const std::vector<uint8_t>& golden,
                                       const RoundTripFn& round_trip, uint64_t seed) {
  constexpr int kInputs = 100000;
  fuzz::ByteMutator mutator(golden.size() * 2);
  Rng rng(seed);
  int decoded = 0;
  for (int i = 0; i < kInputs; ++i) {
    Result<std::vector<uint8_t>> encoded = round_trip(mutator.Mutate(golden, rng));
    if (!encoded.ok()) {
      continue;
    }
    ++decoded;
    Result<std::vector<uint8_t>> again = round_trip(encoded.value());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_EQ(again.value(), encoded.value());
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kInputs);
}

}  // namespace eof

#endif  // TESTS_FLEET_DECODER_HARNESS_H_
