#include "src/hw/board.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

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

void RamPages::AppendNonZero(uint64_t offset, const std::vector<uint8_t>& data) {
  for (uint64_t at = 0; at < data.size(); at += kRamPageBytes) {
    auto first = data.begin() + static_cast<std::ptrdiff_t>(at);
    auto last = data.begin() +
                static_cast<std::ptrdiff_t>(std::min<uint64_t>(at + kRamPageBytes, data.size()));
    if (std::any_of(first, last, [](uint8_t byte) { return byte != 0; })) {
      pages.push_back((offset + at) / kRamPageBytes);
      bytes.insert(bytes.end(), first, last);
    }
  }
}

std::vector<uint8_t> RamPages::Expand() const {
  std::vector<uint8_t> ram(ram_bytes, 0);
  for (size_t i = 0; i < pages.size(); ++i) {
    const uint64_t offset = pages[i] * kRamPageBytes;
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(i * kRamPageBytes),
                std::min(kRamPageBytes, ram_bytes - offset),
                ram.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return ram;
}

Status RamPages::Poke(uint64_t offset, const std::vector<uint8_t>& data) {
  if (!InBounds(offset, data.size(), ram_bytes)) {
    return OutOfRangeError(StrFormat("RAM poke at +0x%llx overruns %llu-byte RAM",
                                     static_cast<unsigned long long>(offset),
                                     static_cast<unsigned long long>(ram_bytes)));
  }
  std::vector<uint8_t> ram = Expand();
  std::copy(data.begin(), data.end(), ram.begin() + static_cast<std::ptrdiff_t>(offset));
  pages.clear();
  bytes.clear();
  AppendNonZero(0, ram);
  return OkStatus();
}

namespace {

// Anonymous private mappings start as the OS's shared zero page.
uint8_t* MapZeroPages(uint64_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* ram = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EOF_CHECK(ram != MAP_FAILED) << "cannot map " << bytes << " bytes of board RAM";
  return static_cast<uint8_t*>(ram);
}

}  // namespace

void Board::RamUnmapper::operator()(uint8_t* ram) const { munmap(ram, bytes); }

Board::Board(BoardSpec spec)
    : spec_(std::move(spec)),
      ram_(MapZeroPages(spec_.ram_bytes), RamUnmapper{spec_.ram_bytes}),
      ram_dirty_((spec_.ram_bytes + 64 * kRamPageBytes - 1) / (64 * kRamPageBytes), 0),
      flash_(spec_.flash_bytes),
      uart_(64 * 1024) {}

void Board::MarkDirty(uint64_t offset, uint64_t size) {
  const uint64_t last = (offset + size - 1) / kRamPageBytes;
  for (uint64_t page = offset / kRamPageBytes; page <= last; ++page) {
    ram_dirty_[page / 64] |= uint64_t{1} << (page % 64);
  }
}

void Board::ZeroDirtyPages() {
  for (size_t word = 0; word < ram_dirty_.size(); ++word) {
    for (uint64_t bits = ram_dirty_[word]; bits != 0; bits &= bits - 1) {
      const uint64_t offset =
          (word * 64 + static_cast<uint64_t>(std::countr_zero(bits))) * kRamPageBytes;
      std::memset(ram_.get() + offset, 0, std::min(kRamPageBytes, spec_.ram_bytes - offset));
    }
    ram_dirty_[word] = 0;
  }
}

void Board::LoadRam(const RamPages& image) {
  EOF_CHECK(image.ram_bytes == spec_.ram_bytes);
  ZeroDirtyPages();
  for (size_t i = 0; i < image.pages.size(); ++i) {
    const uint64_t offset = image.pages[i] * kRamPageBytes;
    const uint64_t size = std::min(kRamPageBytes, spec_.ram_bytes - offset);
    std::memcpy(ram_.get() + offset, image.bytes.data() + i * kRamPageBytes, size);
    MarkDirty(offset, size);
  }
}

Status Board::RamWrite(uint64_t offset, const std::vector<uint8_t>& data) {
  if (!InBounds(offset, data.size(), spec_.ram_bytes)) {
    return OutOfRangeError(StrFormat("RAM write at +0x%llx overruns %llu-byte RAM",
                                     static_cast<unsigned long long>(offset),
                                     static_cast<unsigned long long>(spec_.ram_bytes)));
  }
  if (data.empty()) {
    return OkStatus();
  }
  std::memcpy(ram_.get() + offset, data.data(), data.size());
  MarkDirty(offset, data.size());
  return OkStatus();
}

Status Board::RamReadInto(uint64_t offset, uint64_t size, std::vector<uint8_t>* out) const {
  if (!InBounds(offset, size, spec_.ram_bytes)) {
    return OutOfRangeError(StrFormat("RAM read at +0x%llx overruns %llu-byte RAM",
                                     static_cast<unsigned long long>(offset),
                                     static_cast<unsigned long long>(spec_.ram_bytes)));
  }
  out->assign(ram_.get() + offset, ram_.get() + offset + size);
  return OkStatus();
}

Status Board::RamWriteU32(uint64_t offset, uint32_t value) {
  if (!InBounds(offset, 4, spec_.ram_bytes)) {
    return OutOfRangeError("RAM u32 write out of bounds");
  }
  std::memcpy(ram_.get() + offset, &value, sizeof value);
  MarkDirty(offset, sizeof value);
  return OkStatus();
}

Status Board::RamWriteU64(uint64_t offset, uint64_t value) {
  if (!InBounds(offset, 8, spec_.ram_bytes)) {
    return OutOfRangeError("RAM u64 write out of bounds");
  }
  std::memcpy(ram_.get() + offset, &value, sizeof value);
  MarkDirty(offset, sizeof value);
  return OkStatus();
}

Result<uint32_t> Board::RamReadU32(uint64_t offset) const {
  if (!InBounds(offset, 4, spec_.ram_bytes)) {
    return OutOfRangeError("RAM u32 read out of bounds");
  }
  uint32_t value = 0;
  std::memcpy(&value, ram_.get() + offset, sizeof value);
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

Status Board::FlashProgram(uint64_t offset, const FirmwareImage::Payload& payload) {
  if (image_ == nullptr || !image_->Owns(payload)) {
    return FailedPreconditionError("programmed payload is not the installed image's");
  }
  // Aliasing pointer: the flash co-owns the image to keep the payload alive.
  return flash_.Program(offset, std::shared_ptr<const FirmwareImage::Payload>(image_, &payload));
}

bool Board::Boot() {
  ZeroDirtyPages();
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
