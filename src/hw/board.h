// The simulated MCU board: RAM, flash, UART, a synthetic program counter, breakpoint
// units, a fault latch, and a virtual clock. It boots whatever firmware image was
// installed and advances it in quanta. The host side never calls Board directly — it
// attaches a DebugPort (src/hw/debug_port.h), which is the JTAG/SWD-equivalent channel.
//
// Execution model: firmware is C++ code whose progress is metered by ConsumeCycles() and
// punctuated by program points (agent workflow symbols). The PC is synthesized from the
// current program point plus cycles burnt since, which gives the two observable behaviours
// the paper's watchdogs depend on: a healthy target's PC keeps moving, and a faulted or
// wedged target's PC freezes (at the exception handler for faults).

#ifndef SRC_HW_BOARD_H_
#define SRC_HW_BOARD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/hw/board_spec.h"
#include "src/hw/firmware.h"
#include "src/hw/flash.h"
#include "src/hw/image.h"
#include "src/hw/peripheral_events.h"
#include "src/hw/stop_info.h"
#include "src/hw/target_env.h"
#include "src/hw/uart.h"

namespace eof {

enum class PowerState : uint8_t {
  kOff,         // never booted / no image
  kBootFailed,  // boot ROM rejected the flash image (or OS init failed)
  kRunning,
  kFaulted,     // hardware fault latched; PC frozen at the exception handler
  kHung,        // wedged in a non-advancing loop; PC frozen
};

const char* PowerStateName(PowerState state);

class Board : public TargetEnv {
 public:
  explicit Board(BoardSpec spec);

  // --- TargetEnv (firmware-visible) ---
  const BoardSpec& spec() const override { return spec_; }
  Status RamWrite(uint64_t offset, const std::vector<uint8_t>& data) override;
  Result<std::vector<uint8_t>> RamRead(uint64_t offset, uint64_t size) const override;
  Uart& uart() override { return uart_; }
  Flash& flash() override { return flash_; }
  Status RamWriteU32(uint64_t offset, uint32_t value) override;
  Status RamWriteU64(uint64_t offset, uint64_t value) override;
  Result<uint32_t> RamReadU32(uint64_t offset) const override;
  void ConsumeCycles(uint64_t cycles) override;
  bool EnterProgramPoint(uint64_t address) override;
  bool NextPeripheralEvent(PeripheralEvent* event) override;
  bool HasPeripheral(Peripheral peripheral) const override {
    return spec_.HasPeripheral(peripheral);
  }
  VirtualTime Now() const override { return clock_.Now(); }

  // --- firmware fault interface (invoked by the agent when the kernel traps) ---

  // Latches a hardware fault: PC freezes at `handler_address`, UART freezes after the
  // in-flight banner. `detail` is kept for test introspection only.
  void LatchFault(uint64_t handler_address, const std::string& detail) override;

  // Marks the core as wedged (infinite non-advancing loop): PC freezes in place.
  void LatchHang(const std::string& detail) override;

  // Reports execution of the synthetic basic block at `address` (coverage-site address
  // space). If a hardware breakpoint is armed there the hit is recorded and the debug
  // round-trip cost charged, approximating GDBFuzz's halt-and-relocate cycle.
  void OnBasicBlockExecuted(uint64_t address) override;

  // --- host-side (DebugPort / tooling) ---

  // Registers the image whose partitions the host is about to flash. The board uses it at
  // boot to validate flash contents and instantiate firmware.
  void InstallImage(std::shared_ptr<const FirmwareImage> image);
  const FirmwareImage* installed_image() const { return image_.get(); }

  Status FlashWrite(uint64_t offset, const std::vector<uint8_t>& data);

  // Power-on / reset: validates flash against the installed image, instantiates firmware,
  // and runs its boot path. Leaves the board kRunning parked before the agent loop, or
  // kBootFailed on validation/boot failure.
  void Reset();

  // Warm restore (snapshot fast path): re-enters the firmware boot path without the
  // boot ROM's full power cycle. Charges kWarmRestoreCost instead of kRebootCost,
  // keeps armed breakpoints, and leaves RAM zeroed for the caller to rewrite from
  // its snapshot. Flash is still validated — a corrupted image means the warm path
  // cannot trust the resident code and the board parks kBootFailed.
  void WarmRestore();

  // Runs firmware until a stop condition (see Firmware::Resume). On a faulted/hung/
  // boot-failed board this just burns the quantum with a frozen PC, which is exactly what
  // the host observes on real hardware.
  StopInfo Continue(uint64_t max_steps = kDefaultQuantum);

  uint64_t ReadPC() const;

  // Breakpoints. Addresses inside the coverage-site ("basic block") space consume the
  // board's limited hardware comparators; program-point addresses use software patching
  // and are unlimited.
  Status AddBreakpoint(uint64_t address);
  void RemoveBreakpoint(uint64_t address);
  void ClearBreakpoints();
  size_t breakpoint_count() const { return sw_breakpoints_.size() + hw_breakpoints_.size(); }

  // Drains hardware-breakpoint hits recorded since the last call (addresses, in order).
  std::vector<uint64_t> TakeBreakpointHits();

  // Queues a peripheral event for the firmware (host-side signal generator). Dropped when
  // the queue is saturated; returns false in that case.
  bool InjectPeripheralEvent(const PeripheralEvent& event);

  // Instantaneous current draw in milliamps, as a bench ammeter on the supply rail sees
  // it (§6: power signals for liveness). Healthy execution alternates active/idle draw;
  // a wedged core spins flat-out; a faulted core parks in the fault loop at a constant
  // plateau; a failed boot idles in the ROM.
  uint32_t PowerDrawMilliAmps() const;

  PowerState power_state() const { return power_state_; }
  const std::string& fault_detail() const { return fault_detail_; }
  VirtualClock& clock() { return clock_; }
  uint64_t cycle_count() const { return cycle_count_; }
  uint64_t reset_count() const { return reset_count_; }
  uint64_t warm_restore_count() const { return warm_restore_count_; }

  static constexpr uint64_t kDefaultQuantum = 1 << 20;

 private:
  bool HasAnyBreakpoint(uint64_t address) const {
    return sw_breakpoints_.count(address) != 0 || hw_breakpoints_.count(address) != 0;
  }
  bool InBasicBlockSpace(uint64_t address) const;

  // The boot ROM's check, image_->VerifyFlash(flash_), re-run only when the installed
  // image or the flash write count changed since the last run.
  Status VerifyFlashMemoized();

  // The boot body Reset and WarmRestore share: wipes RAM and the session state, runs
  // the boot ROM's flash check, and boots the firmware (kRunning or kBootFailed).
  // Returns false — board kOff — when no bootable image is installed.
  bool Boot();

  BoardSpec spec_;
  std::vector<uint8_t> ram_;
  Flash flash_;
  Uart uart_;
  VirtualClock clock_;

  std::shared_ptr<const FirmwareImage> image_;
  std::unique_ptr<Firmware> firmware_;

  bool flash_verified_ = false;  // flash_verdict_ is valid for image_
  uint64_t flash_verified_write_count_ = 0;
  Status flash_verdict_;

  PowerState power_state_ = PowerState::kOff;
  std::string fault_detail_;

  std::deque<PeripheralEvent> pending_events_;
  std::set<uint64_t> sw_breakpoints_;
  std::set<uint64_t> hw_breakpoints_;
  std::vector<uint64_t> bp_hits_;

  // Synthetic PC bookkeeping.
  uint64_t current_point_ = 0;   // address of the last program point entered
  uint64_t cycles_at_point_ = 0;
  uint64_t frozen_pc_ = 0;       // valid when faulted/hung/boot-failed
  uint64_t cycle_count_ = 0;
  uint64_t reset_count_ = 0;
  uint64_t warm_restore_count_ = 0;
};

}  // namespace eof

#endif  // SRC_HW_BOARD_H_
