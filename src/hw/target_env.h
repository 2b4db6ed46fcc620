// The view of the board that firmware (kernel + agent) is allowed to touch. Firmware never
// sees the debug port — that is host-side only — but it can read/write RAM, drive the UART,
// program flash (which is how a buggy kernel corrupts its own image), consume cycles, and
// observe whether the host armed a breakpoint at the program point it just reached.

#ifndef SRC_HW_TARGET_ENV_H_
#define SRC_HW_TARGET_ENV_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/hw/board_spec.h"
#include "src/hw/flash.h"
#include "src/hw/peripheral_events.h"
#include "src/hw/uart.h"

namespace eof {

class TargetEnv {
 public:
  virtual ~TargetEnv() = default;

  virtual const BoardSpec& spec() const = 0;

  // RAM, addressed by offset from ram_base.
  virtual Status RamWrite(uint64_t offset, const std::vector<uint8_t>& data) = 0;
  // Replaces `*out` with the `size` bytes at `offset`; `out` keeps its capacity.
  virtual Status RamReadInto(uint64_t offset, uint64_t size,
                             std::vector<uint8_t>* out) const = 0;

  virtual Uart& uart() = 0;
  virtual Flash& flash() = 0;

  // Burns `cycles` core cycles: advances the virtual clock and the synthetic PC.
  virtual void ConsumeCycles(uint64_t cycles) = 0;

  // Marks arrival at the program point at `address` (updates PC). Returns true when the
  // host armed a breakpoint there, in which case the caller must suspend and return a
  // kBreakpoint StopInfo from Resume().
  virtual bool EnterProgramPoint(uint64_t address) = 0;

  // Word-sized RAM accessors for hot paths (coverage-ring writes); semantics match
  // RamWrite/RamReadInto of 4/8 bytes little-endian.
  virtual Status RamWriteU32(uint64_t offset, uint32_t value) = 0;
  virtual Status RamWriteU64(uint64_t offset, uint64_t value) = 0;
  virtual Result<uint32_t> RamReadU32(uint64_t offset) const = 0;

  // Reports execution of the synthetic basic block at `address` (coverage-site address
  // space) so armed hardware breakpoints register hits.
  virtual void OnBasicBlockExecuted(uint64_t address) = 0;

  virtual bool HasPeripheral(Peripheral peripheral) const = 0;

  // Pops the next pending injected peripheral event (bench signal generator), if any.
  virtual bool NextPeripheralEvent(PeripheralEvent* event) = 0;

  // Fault plumbing: the agent calls these when a kernel trap unwinds out of a call.
  // LatchFault freezes the PC at the OS exception handler; LatchHang freezes it in place.
  virtual void LatchFault(uint64_t handler_address, const std::string& detail) = 0;
  virtual void LatchHang(const std::string& detail) = 0;

  virtual VirtualTime Now() const = 0;
};

}  // namespace eof

#endif  // SRC_HW_TARGET_ENV_H_
