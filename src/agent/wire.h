// Test-case wire format: the serialized program the host writes into the mailbox and the
// agent deserializes with primitive operations only (§4.3.2).
//
//   [magic u32 = kWireMagic][ncalls u16]
//   per call: [api_id u32][nargs u8]
//     per arg: [kind u8]
//       kind 0 (scalar):     [value u64]
//       kind 1 (result ref): [call_index u16]   — use the result of an earlier call
//       kind 2 (bytes):      [len u32][bytes]

#ifndef SRC_AGENT_WIRE_H_
#define SRC_AGENT_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/agent/agent_layout.h"
#include "src/common/byteio.h"

namespace eof {

inline constexpr uint32_t kWireMagic = 0x45304650;  // "E0FP"
inline constexpr uint32_t kWireMaxCalls = 64;
inline constexpr uint32_t kWireMaxArgBytes = 2048;

enum class WireArgKind : uint8_t {
  kScalar = 0,
  kResultRef = 1,
  kBytes = 2,
};

struct WireArg {
  WireArgKind kind = WireArgKind::kScalar;
  uint64_t scalar = 0;     // kScalar value or kResultRef call index
  std::vector<uint8_t> bytes;

  static WireArg Scalar(uint64_t value) {
    WireArg arg;
    arg.kind = WireArgKind::kScalar;
    arg.scalar = value;
    return arg;
  }
  static WireArg ResultRef(uint16_t call_index) {
    WireArg arg;
    arg.kind = WireArgKind::kResultRef;
    arg.scalar = call_index;
    return arg;
  }
  static WireArg Bytes(std::vector<uint8_t> data) {
    WireArg arg;
    arg.kind = WireArgKind::kBytes;
    arg.bytes = std::move(data);
    return arg;
  }
};

struct WireCall {
  uint32_t api_id = 0;
  std::vector<WireArg> args;
};

struct WireProgram {
  std::vector<WireCall> calls;
};

// The one encoder of the format. It writes into a caller-owned buffer, which keeps its
// capacity from program to program; callers walk their own program type, announcing
// each call and then writing its args in order.
class WireWriter {
 public:
  // Clears `*out` and writes the header for `ncalls` calls.
  WireWriter(std::vector<uint8_t>* out, size_t ncalls);

  void Call(uint32_t api_id, size_t nargs);
  void Scalar(uint64_t value);
  void ResultRef(uint16_t call_index);
  void Bytes(const std::vector<uint8_t>& bytes);

 private:
  void PutLe(uint64_t value, size_t width);

  std::vector<uint8_t>& out_;
};

// Host side: serialize for the mailbox.
std::vector<uint8_t> EncodeProgram(const WireProgram& program);

// Target side: decode with full validation. On failure returns the AgentError that the
// agent reports in its status block, and `out` holds the calls decoded before the
// failing one. `out` may be reused from an earlier decode: its calls, args and byte
// buffers are overwritten in place, so a decoder that keeps one WireProgram stops
// allocating once it has seen its largest program.
AgentError DecodeProgram(const uint8_t* data, size_t size, WireProgram* out);

}  // namespace eof

#endif  // SRC_AGENT_WIRE_H_
