// The fuzzer's program representation: a typed API-call sequence with resource references
// between calls (Syzkaller-style). Programs serialize to the agent wire format for
// execution and hash stably for corpus dedup.

#ifndef SRC_FUZZ_PROGRAM_H_
#define SRC_FUZZ_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/agent/wire.h"
#include "src/spec/compiler.h"

namespace eof {
namespace fuzz {

struct ProgArg {
  enum class Kind : uint8_t { kScalar, kResult, kBytes };
  Kind kind = Kind::kScalar;
  uint64_t scalar = 0;            // kScalar value
  int ref = -1;                   // kResult: index of the producing call
  std::vector<uint8_t> bytes;     // kBytes payload

  static ProgArg Scalar(uint64_t value) {
    ProgArg arg;
    arg.kind = Kind::kScalar;
    arg.scalar = value;
    return arg;
  }
  static ProgArg Result(int call_index) {
    ProgArg arg;
    arg.kind = Kind::kResult;
    arg.ref = call_index;
    return arg;
  }
  static ProgArg Bytes(std::vector<uint8_t> data) {
    ProgArg arg;
    arg.kind = Kind::kBytes;
    arg.bytes = std::move(data);
    return arg;
  }
};

// Writes one call of `api_id` with `args` through `writer`. Program::Encode writes each
// of its calls this way; examples and tests that name calls by api id use it directly.
void WriteCall(WireWriter* writer, uint32_t api_id, const std::vector<ProgArg>& args);

struct ProgCall {
  size_t spec_index = 0;  // index into CompiledSpecs::calls
  std::vector<ProgArg> args;
};

struct Program {
  std::vector<ProgCall> calls;

  // Serializes into `*out` for the agent mailbox, binding spec_index to api_id through
  // `specs`. `out` is overwritten and keeps its capacity.
  void Encode(const spec::CompiledSpecs& specs, std::vector<uint8_t>* out) const;

  // Stable content hash for corpus dedup.
  uint64_t Hash() const;

  // Structural sanity: every kResult ref points at an earlier call. Used as a test
  // invariant after every mutation.
  bool RefsValid() const;

  // Human-readable dump ("xTaskCreate(\"t\", 256, 5) -> r0 ...") for crash reports.
  std::string Format(const spec::CompiledSpecs& specs) const;
};

}  // namespace fuzz
}  // namespace eof

#endif  // SRC_FUZZ_PROGRAM_H_
