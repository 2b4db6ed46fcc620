#include "src/hw/board.h"
#include <cstddef>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/hw/timing.h"

namespace eof {
namespace {

// PC wiggle: the synthetic PC walks a 4 KiB window above the current program point as
// cycles burn, so a healthy target's PC visibly changes between host samples.
constexpr uint64_t kPcWindowWords = 1024;

// How many core cycles an idle/frozen Continue() burns before returning to the host.
constexpr uint64_t kFrozenQuantumCycles = 100000;

}  // namespace

const char* PowerStateName(PowerState state) {
  switch (state) {
    case PowerState::kOff:
      return "off";
    case PowerState::kBootFailed:
      return "boot-failed";
    case PowerState::kRunning:
      return "running";
    case PowerState::kFaulted:
      return "faulted";
    case PowerState::kHung:
      return "hung";
  }
  return "?";
}

Board::Board(BoardSpec spec)
    : spec_(std::move(spec)),
      ram_(spec_.ram_bytes, 0),
      flash_(spec_.flash_bytes),
      uart_(64 * 1024) {}

Status Board::RamWrite(uint64_t offset, const std::vector<uint8_t>& data) {
  if (offset + data.size() > ram_.size()) {
    return OutOfRangeError(StrFormat("RAM write at +0x%llx overruns %zu-byte RAM",
                                     static_cast<unsigned long long>(offset), ram_.size()));
  }
  std::copy(data.begin(), data.end(), ram_.begin() + static_cast<std::ptrdiff_t>(offset));
  return OkStatus();
}

Result<std::vector<uint8_t>> Board::RamRead(uint64_t offset, uint64_t size) const {
  if (offset + size > ram_.size()) {
    return OutOfRangeError(StrFormat("RAM read at +0x%llx overruns %zu-byte RAM",
                                     static_cast<unsigned long long>(offset), ram_.size()));
  }
  return std::vector<uint8_t>(ram_.begin() + static_cast<std::ptrdiff_t>(offset),
                              ram_.begin() + static_cast<std::ptrdiff_t>(offset + size));
}

Status Board::RamWriteU32(uint64_t offset, uint32_t value) {
  if (offset + 4 > ram_.size()) {
    return OutOfRangeError("RAM u32 write out of bounds");
  }
  for (int i = 0; i < 4; ++i) {
    ram_[offset + static_cast<uint64_t>(i)] = static_cast<uint8_t>(value >> (i * 8));
  }
  return OkStatus();
}

Status Board::RamWriteU64(uint64_t offset, uint64_t value) {
  if (offset + 8 > ram_.size()) {
    return OutOfRangeError("RAM u64 write out of bounds");
  }
  for (int i = 0; i < 8; ++i) {
    ram_[offset + static_cast<uint64_t>(i)] = static_cast<uint8_t>(value >> (i * 8));
  }
  return OkStatus();
}

Result<uint32_t> Board::RamReadU32(uint64_t offset) const {
  if (offset + 4 > ram_.size()) {
    return OutOfRangeError("RAM u32 read out of bounds");
  }
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(ram_[offset + static_cast<uint64_t>(i)]) << (i * 8);
  }
  return value;
}

void Board::ConsumeCycles(uint64_t cycles) {
  cycle_count_ += cycles;
  // clock_mhz cycles per microsecond.
  clock_.Advance(cycles / spec_.clock_mhz + 1);
}

bool Board::EnterProgramPoint(uint64_t address) {
  current_point_ = address;
  cycles_at_point_ = cycle_count_;
  ConsumeCycles(4);
  return sw_breakpoints_.count(address) != 0 || hw_breakpoints_.count(address) != 0;
}

void Board::LatchFault(uint64_t handler_address, const std::string& detail) {
  power_state_ = PowerState::kFaulted;
  fault_detail_ = detail;
  frozen_pc_ = handler_address + 8;  // parked a couple of instructions into the handler
  uart_.Freeze();
}

void Board::LatchHang(const std::string& detail) {
  power_state_ = PowerState::kHung;
  fault_detail_ = detail;
  frozen_pc_ = ReadPC();
}

void Board::OnBasicBlockExecuted(uint64_t address) {
  if (hw_breakpoints_.count(address) != 0) {
    bp_hits_.push_back(address);
    // The debugger halts, records, and resumes: two link round-trips.
    clock_.Advance(2 * kDebugTransactionCost);
  }
}

void Board::InstallImage(std::shared_ptr<const FirmwareImage> image) {
  image_ = std::move(image);
  flash_verified_ = false;
}

Status Board::VerifyFlashMemoized() {
  if (!flash_verified_ || flash_verified_write_count_ != flash_.write_count()) {
    flash_verdict_ = image_->VerifyFlash(flash_);
    flash_verified_write_count_ = flash_.write_count();
    flash_verified_ = true;
  }
  return flash_verdict_;
}

Status Board::FlashWrite(uint64_t offset, const std::vector<uint8_t>& data) {
  return flash_.Write(offset, data);
}

bool Board::Boot() {
  std::fill(ram_.begin(), ram_.end(), 0);
  uart_.Reset();
  bp_hits_.clear();
  pending_events_.clear();
  fault_detail_.clear();
  firmware_.reset();
  current_point_ = 0;
  cycles_at_point_ = cycle_count_;
  frozen_pc_ = 0;

  if (image_ == nullptr || !image_->has_factory()) {
    power_state_ = PowerState::kOff;
    return false;
  }
  Status flash_ok = VerifyFlashMemoized();
  if (!flash_ok.ok()) {
    // Boot ROM rejects the image silently; the host sees only unresponsiveness.
    power_state_ = PowerState::kBootFailed;
    frozen_pc_ = spec_.flash_base;  // stuck in the ROM loader
    return true;
  }
  firmware_ = image_->Instantiate();
  power_state_ = PowerState::kRunning;
  Status boot = firmware_->OnBoot(*this);
  if (!boot.ok()) {
    power_state_ = PowerState::kBootFailed;
    frozen_pc_ = ReadPC();
    firmware_.reset();
  }
  return true;
}

void Board::Reset() {
  ++reset_count_;
  clock_.Advance(kRebootCost);
  Boot();
}

void Board::WarmRestore() {
  ++warm_restore_count_;
  // The boot path meters itself in cycles (ConsumeCycles advances the clock); a warm
  // restore replaces those charges with one flat cost, so remember where the clock
  // stood and settle up at the end.
  const VirtualTime start = clock_.Now();
  if (!Boot()) {
    return;
  }
  clock_.RewindTo(start);
  clock_.Advance(kWarmRestoreCost);
}

StopInfo Board::Continue(uint64_t max_steps) {
  StopInfo info;
  switch (power_state_) {
    case PowerState::kOff:
    case PowerState::kBootFailed:
      info.reason = HaltReason::kPoweredOff;
      info.pc = frozen_pc_;
      return info;
    case PowerState::kFaulted:
    case PowerState::kHung:
      // The core spins without making progress; the host just loses the quantum.
      clock_.Advance(kFrozenQuantumCycles / spec_.clock_mhz);
      info.reason = HaltReason::kQuantumExpired;
      info.pc = frozen_pc_;
      info.symbol = image_ != nullptr ? image_->symbols().Containing(info.pc) : "";
      return info;
    case PowerState::kRunning:
      break;
  }
  info = firmware_->Resume(*this, max_steps);
  info.pc = ReadPC();
  if (power_state_ == PowerState::kFaulted || power_state_ == PowerState::kHung) {
    info.pc = frozen_pc_;
  }
  // A debugger cannot tell "fault loop" or "wedged" from "still running"; only breakpoints
  // and PC samples are observable. Mask the internal reasons accordingly.
  if (info.reason == HaltReason::kFault || info.reason == HaltReason::kHang) {
    info.reason = HaltReason::kQuantumExpired;
  }
  if (image_ != nullptr) {
    info.symbol = image_->symbols().Containing(info.pc);
  }
  return info;
}

uint64_t Board::ReadPC() const {
  if (power_state_ == PowerState::kFaulted || power_state_ == PowerState::kHung ||
      power_state_ == PowerState::kBootFailed) {
    return frozen_pc_;
  }
  uint64_t delta_words = (cycle_count_ - cycles_at_point_) / 8;
  return current_point_ + (delta_words % kPcWindowWords) * 4;
}

uint32_t Board::PowerDrawMilliAmps() const {
  switch (power_state_) {
    case PowerState::kOff:
      return 0;
    case PowerState::kBootFailed:
      return 18;  // ROM wait loop with peripherals unclocked
    case PowerState::kFaulted:
    case PowerState::kHung:
      return 120;  // tight loop, no WFI: the flat plateau the paper's §6 points at
    case PowerState::kRunning:
      break;
  }
  // Active draw wiggles with recent execution (cycle parity stands in for DVFS noise).
  return 45 + static_cast<uint32_t>((cycle_count_ >> 10) % 23);
}

bool Board::InBasicBlockSpace(uint64_t address) const {
  return image_ != nullptr && image_->InCodeSpace(address);
}

Status Board::AddBreakpoint(uint64_t address) {
  if (HasAnyBreakpoint(address)) {
    return OkStatus();
  }
  if (InBasicBlockSpace(address)) {
    if (static_cast<int>(hw_breakpoints_.size()) >= spec_.max_hw_breakpoints) {
      return ResourceExhaustedError(
          StrFormat("all %d hardware breakpoints in use", spec_.max_hw_breakpoints));
    }
    hw_breakpoints_.insert(address);
  } else {
    sw_breakpoints_.insert(address);
  }
  return OkStatus();
}

void Board::RemoveBreakpoint(uint64_t address) {
  sw_breakpoints_.erase(address);
  hw_breakpoints_.erase(address);
}

void Board::ClearBreakpoints() {
  sw_breakpoints_.clear();
  hw_breakpoints_.clear();
}

bool Board::NextPeripheralEvent(PeripheralEvent* event) {
  if (pending_events_.empty()) {
    return false;
  }
  *event = pending_events_.front();
  pending_events_.pop_front();
  return true;
}

bool Board::InjectPeripheralEvent(const PeripheralEvent& event) {
  if (pending_events_.size() >= 64) {
    return false;  // the signal generator outpaced the target; drop
  }
  pending_events_.push_back(event);
  return true;
}

std::vector<uint64_t> Board::TakeBreakpointHits() {
  std::vector<uint64_t> hits;
  hits.swap(bp_hits_);
  return hits;
}

}  // namespace eof
