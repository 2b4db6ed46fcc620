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

// The one encoder of the format. It writes into a caller-owned buffer, which keeps its
// capacity from program to program; callers walk their own program type, announcing
// each call and then writing its args in order. The header's call count follows the
// calls announced so far.
class WireWriter {
 public:
  // Clears `*out` and writes the header of an empty program.
  explicit WireWriter(std::vector<uint8_t>* out);

  void Call(uint32_t api_id, size_t nargs);
  void Scalar(uint64_t value);
  void ResultRef(uint16_t call_index);
  void Bytes(const uint8_t* data, size_t size);

  // Calls announced so far.
  size_t calls() const { return calls_; }

 private:
  void PutLe(uint64_t value, size_t width);

  std::vector<uint8_t>& out_;
  size_t calls_ = 0;
};

// Target side: checks the whole program in one pass with primitive operations. Returns
// the AgentError that the agent reports in its status block; bytes after the last call
// are accepted and ignored. `call_offsets` is cleared and then holds the start offset of
// every call checked before the pass returned, so on success call i starts at
// (*call_offsets)[i] and every read of it stays in bounds.
AgentError ValidateProgram(const uint8_t* data, size_t size,
                           std::vector<uint32_t>* call_offsets);

}  // namespace eof

#endif  // SRC_AGENT_WIRE_H_
