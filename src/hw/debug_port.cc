#include "src/hw/debug_port.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/hw/timing.h"

namespace eof {

DebugPortStats DebugPortStatsFromSnapshot(const telemetry::MetricsSnapshot& snapshot) {
  DebugPortStats stats;
  stats.transactions = snapshot.CounterValue("link.transactions");
  stats.batches = snapshot.CounterValue("link.batches");
  stats.batched_ops = snapshot.CounterValue("link.batched_ops");
  stats.bytes_read = snapshot.CounterValue("link.bytes_read");
  stats.bytes_written = snapshot.CounterValue("link.bytes_written");
  stats.timeouts = snapshot.CounterValue("link.timeouts");
  stats.flash_bytes = snapshot.CounterValue("link.flash_bytes");
  stats.flash_skipped_bytes = snapshot.CounterValue("link.flash_skipped_bytes");
  stats.resets = snapshot.CounterValue("link.resets");
  stats.warm_restores = snapshot.CounterValue("link.warm_restores");
  return stats;
}

DebugPort::DebugPort(Board* board, telemetry::MetricsRegistry* registry) : board_(board) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  transactions_ = registry_->RegisterCounter("link.transactions");
  batches_ = registry_->RegisterCounter("link.batches");
  batched_ops_ = registry_->RegisterCounter("link.batched_ops");
  bytes_read_ = registry_->RegisterCounter("link.bytes_read");
  bytes_written_ = registry_->RegisterCounter("link.bytes_written");
  timeouts_ = registry_->RegisterCounter("link.timeouts");
  flash_bytes_ = registry_->RegisterCounter("link.flash_bytes");
  flash_skipped_bytes_ = registry_->RegisterCounter("link.flash_skipped_bytes");
  resets_ = registry_->RegisterCounter("link.resets");
  warm_restores_ = registry_->RegisterCounter("link.warm_restores");
}

DebugPortStats DebugPort::stats() const {
  return DebugPortStatsFromSnapshot(registry_->Snapshot());
}

Status DebugPort::Connect() {
  if (!board_->spec().has_debug_port) {
    return UnavailableError(
        StrFormat("board '%s' exposes no debug port", board_->spec().name.c_str()));
  }
  if (link_severed_) {
    board_->clock().Advance(kLinkTimeout);
    timeouts_->Increment();
    return TimeoutError("debug link severed");
  }
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  attached_ = true;
  return OkStatus();
}

Status DebugPort::CheckResponsive(bool needs_core) {
  if (!attached_) {
    return UnavailableError("debug port not attached");
  }
  if (link_severed_) {
    board_->clock().Advance(kLinkTimeout);
    timeouts_->Increment();
    return TimeoutError("debug link severed");
  }
  if (needs_core && (board_->power_state() == PowerState::kOff ||
                     board_->power_state() == PowerState::kBootFailed)) {
    // A core that never left the boot ROM does not service run-control requests.
    board_->clock().Advance(kLinkTimeout);
    timeouts_->Increment();
    return TimeoutError(StrFormat("target unresponsive (state: %s)",
                                  PowerStateName(board_->power_state())));
  }
  return OkStatus();
}

Status DebugPort::ReadWindow(uint64_t address, uint64_t size,
                             std::vector<uint8_t>* out) const {
  const BoardSpec& spec = board_->spec();
  if (address >= spec.ram_base && InBounds(address - spec.ram_base, size, spec.ram_bytes)) {
    return board_->RamReadInto(address - spec.ram_base, size, out);
  }
  if (address >= spec.flash_base &&
      InBounds(address - spec.flash_base, size, spec.flash_bytes)) {
    ASSIGN_OR_RETURN(*out, board_->flash().Read(address - spec.flash_base, size));
    return OkStatus();
  }
  return OutOfRangeError(StrFormat("address 0x%llx not in RAM or flash window",
                                   static_cast<unsigned long long>(address)));
}

Status DebugPort::WriteWindow(uint64_t address, const std::vector<uint8_t>& data) {
  const BoardSpec& spec = board_->spec();
  if (address >= spec.ram_base &&
      InBounds(address - spec.ram_base, data.size(), spec.ram_bytes)) {
    return board_->RamWrite(address - spec.ram_base, data);
  }
  return OutOfRangeError(StrFormat("address 0x%llx not writable over the link",
                                   static_cast<unsigned long long>(address)));
}

Result<std::vector<uint8_t>> DebugPort::ReadMem(uint64_t address, uint64_t size) {
  Status gate = CheckResponsive(/*needs_core=*/true);
  if (!gate.ok()) {
    Note(telemetry::FlightPortOp::kRead, address, size, false);
    return gate;
  }
  board_->clock().Advance(DebugMemCost(size));
  transactions_->Increment();
  bytes_read_->Add(size);
  Note(telemetry::FlightPortOp::kRead, address, size, true);
  std::vector<uint8_t> out;
  RETURN_IF_ERROR(ReadWindow(address, size, &out));
  return out;
}

Status DebugPort::WriteMem(uint64_t address, const std::vector<uint8_t>& data) {
  Status gate = CheckResponsive(/*needs_core=*/true);
  if (!gate.ok()) {
    Note(telemetry::FlightPortOp::kWrite, address, data.size(), false);
    return gate;
  }
  board_->clock().Advance(DebugMemCost(data.size()));
  transactions_->Increment();
  bytes_written_->Add(data.size());
  Note(telemetry::FlightPortOp::kWrite, address, data.size(), true);
  return WriteWindow(address, data);
}

uint64_t DebugPort::BatchPlanBytes(const std::vector<PortOp>& ops, bool* needs_core) {
  uint64_t total_bytes = 0;
  for (const PortOp& op : ops) {
    switch (op.kind) {
      case PortOp::Kind::kRead:
        *needs_core = true;
        total_bytes += op.size;
        break;
      case PortOp::Kind::kWrite:
        *needs_core = true;
        total_bytes += op.data.size();
        break;
      case PortOp::Kind::kSubU32:
        *needs_core = true;
        total_bytes += 8;  // the RMW helper moves a u32 each way
        break;
      case PortOp::Kind::kSetBreakpoint:
        total_bytes += 8;  // comparator programming word
        break;
    }
  }
  return total_bytes;
}

Status DebugPort::ChargeBatch(uint64_t front_address, uint64_t op_count,
                              uint64_t total_bytes, bool needs_core) {
  // One responsiveness gate for the whole batch: a severed link burns a single
  // timeout and applies nothing.
  Status gate = CheckResponsive(needs_core);
  if (!gate.ok()) {
    // One failed record stands in for the whole unapplied batch.
    Note(telemetry::FlightPortOp::kRead, front_address, op_count, false);
    return gate;
  }
  board_->clock().Advance(DebugBatchCost(total_bytes));
  transactions_->Increment();
  batches_->Increment();
  batched_ops_->Add(op_count);
  return OkStatus();
}

Status DebugPort::RunBatch(std::vector<PortOp>* ops) {
  if (ops == nullptr || ops->empty()) {
    return OkStatus();  // nothing queued: no round trip, no charge
  }
  bool needs_core = false;
  uint64_t total_bytes = BatchPlanBytes(*ops, &needs_core);
  RETURN_IF_ERROR(ChargeBatch(ops->front().address, ops->size(), total_bytes, needs_core));
  return ApplyBatchOps(ops);
}

Status DebugPort::WriteRam(const RamPages& image) {
  const BoardSpec& spec = board_->spec();
  if (image.ram_bytes != spec.ram_bytes) {
    return InvalidArgumentError(
        StrFormat("RAM image of %llu bytes does not fit the %llu-byte RAM window",
                  static_cast<unsigned long long>(image.ram_bytes),
                  static_cast<unsigned long long>(spec.ram_bytes)));
  }
  const uint64_t chunks = (image.ram_bytes + kRamChunkBytes - 1) / kRamChunkBytes;
  RETURN_IF_ERROR(ChargeBatch(spec.ram_base, chunks, image.ram_bytes, /*needs_core=*/true));
  for (uint64_t offset = 0; offset < image.ram_bytes; offset += kRamChunkBytes) {
    const uint64_t size = std::min(kRamChunkBytes, image.ram_bytes - offset);
    Note(telemetry::FlightPortOp::kWrite, spec.ram_base + offset, size, true);
    bytes_written_->Add(size);
  }
  board_->LoadRam(image);
  return OkStatus();
}

Status DebugPort::ApplyBatchOps(std::vector<PortOp>* ops) {
  for (size_t i = 0; i < ops->size(); ++i) {
    PortOp& op = (*ops)[i];
    if (flight_ != nullptr) {
      telemetry::FlightPortOp kind = telemetry::FlightPortOp::kRead;
      uint64_t size = op.size;
      switch (op.kind) {
        case PortOp::Kind::kRead:
          kind = telemetry::FlightPortOp::kRead;
          break;
        case PortOp::Kind::kWrite:
          kind = telemetry::FlightPortOp::kWrite;
          size = op.data.size();
          break;
        case PortOp::Kind::kSubU32:
          kind = telemetry::FlightPortOp::kSubU32;
          size = 4;
          break;
        case PortOp::Kind::kSetBreakpoint:
          kind = telemetry::FlightPortOp::kSetBreakpoint;
          size = 0;
          break;
      }
      Note(kind, op.address, size, true);
    }
    switch (op.kind) {
      case PortOp::Kind::kRead: {
        RETURN_IF_ERROR(ReadWindow(op.address, op.size, &op.result));
        bytes_read_->Add(op.size);
        break;
      }
      case PortOp::Kind::kWrite: {
        RETURN_IF_ERROR(WriteWindow(op.address, op.data));
        bytes_written_->Add(op.data.size());
        break;
      }
      case PortOp::Kind::kSubU32: {
        if (op.operand_op < 0 || static_cast<size_t>(op.operand_op) >= i ||
            (*ops)[static_cast<size_t>(op.operand_op)].kind != PortOp::Kind::kRead) {
          return InvalidArgumentError("kSubU32 operand must reference an earlier kRead op");
        }
        const std::vector<uint8_t>& src = (*ops)[static_cast<size_t>(op.operand_op)].result;
        if (!InBounds(op.operand_offset, 4, src.size())) {
          return InvalidArgumentError("kSubU32 operand offset out of the read's bounds");
        }
        uint32_t minuend = static_cast<uint32_t>(src[op.operand_offset]) |
                           static_cast<uint32_t>(src[op.operand_offset + 1]) << 8 |
                           static_cast<uint32_t>(src[op.operand_offset + 2]) << 16 |
                           static_cast<uint32_t>(src[op.operand_offset + 3]) << 24;
        const BoardSpec& spec = board_->spec();
        if (op.address < spec.ram_base ||
            !InBounds(op.address - spec.ram_base, 4, spec.ram_bytes)) {
          return OutOfRangeError("kSubU32 target not in the RAM window");
        }
        uint64_t offset = op.address - spec.ram_base;
        ASSIGN_OR_RETURN(uint32_t current, board_->RamReadU32(offset));
        uint32_t updated = current >= minuend ? current - minuend : 0;
        RETURN_IF_ERROR(board_->RamWriteU32(offset, updated));
        bytes_read_->Add(4);
        bytes_written_->Add(4);
        break;
      }
      case PortOp::Kind::kSetBreakpoint: {
        RETURN_IF_ERROR(board_->AddBreakpoint(op.address));
        break;
      }
    }
  }
  return OkStatus();
}

Status DebugPort::ChargeChecksum(uint64_t address, uint64_t size) {
  // needs_core=false: the checksum runs through the debug unit's memory AP / flash
  // controller, so it is serviced even on a core that never booted (like FlashPartition).
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kChecksum, address, size, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(ChecksumCost(size));
  transactions_->Increment();
  return OkStatus();
}

Result<uint64_t> DebugPort::ChecksumMem(uint64_t address, uint64_t size) {
  RETURN_IF_ERROR(ChargeChecksum(address, size));
  uint64_t digest = 0;
  const BoardSpec& spec = board_->spec();
  if (address >= spec.flash_base &&
      InBounds(address - spec.flash_base, size, spec.flash_bytes)) {
    // Flash hashes in place; the price above is the target's, whatever the host pays.
    ASSIGN_OR_RETURN(digest, board_->flash().Digest(address - spec.flash_base, size));
  } else {
    std::vector<uint8_t> bytes;
    RETURN_IF_ERROR(ReadWindow(address, size, &bytes));
    digest = ChecksumBytes(bytes.data(), bytes.size());
  }
  bytes_read_->Add(8);  // only the digest crosses the link
  return digest;
}

Result<bool> DebugPort::FlashHolds(uint64_t address, const FirmwareImage::Payload& payload) {
  RETURN_IF_ERROR(ChargeChecksum(address, payload.size()));
  // An address below flash wraps to an offset Holds rejects as out of bounds.
  ASSIGN_OR_RETURN(bool held,
                   board_->flash().Holds(address - board_->spec().flash_base, payload));
  bytes_read_->Add(8);  // only the digest crosses the link
  return held;
}

Result<uint64_t> DebugPort::ReadFlashWriteCount() {
  // Status-word read through the memory AP; like ChecksumMem it needs no live core.
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kRead, board_->spec().flash_base, 8, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  bytes_read_->Add(8);
  return board_->flash().write_count();
}

Result<uint64_t> DebugPort::ReadPC() {
  Status gate = CheckResponsive(/*needs_core=*/true);
  Note(telemetry::FlightPortOp::kReadPc, 0, 0, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  return board_->ReadPC();
}

Result<StopInfo> DebugPort::Continue(uint64_t max_steps) {
  Status gate = CheckResponsive(/*needs_core=*/true);
  if (!gate.ok()) {
    Note(telemetry::FlightPortOp::kContinue, 0, 0, false);
    return gate;
  }
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  StopInfo stop = board_->Continue(max_steps);
  // Recorded post-stop so the record carries the stop pc the host actually saw.
  Note(telemetry::FlightPortOp::kContinue, stop.pc, 0, true);
  return stop;
}

Result<StopInfo> DebugPort::ContinueWithRead(uint64_t address, uint64_t size,
                                             std::vector<uint8_t>* out,
                                             uint64_t max_steps) {
  Status gate = CheckResponsive(/*needs_core=*/true);
  if (!gate.ok()) {
    Note(telemetry::FlightPortOp::kContinue, 0, size, false);
    return gate;
  }
  board_->clock().Advance(DebugBatchCost(size));
  transactions_->Increment();
  batches_->Increment();
  batched_ops_->Add(2);
  StopInfo stop = board_->Continue(max_steps);
  Note(telemetry::FlightPortOp::kContinue, stop.pc, size, true);
  RETURN_IF_ERROR(ReadWindow(address, size, out));
  bytes_read_->Add(size);
  return stop;
}

Result<StopInfo> DebugPort::ContinueWithPlan(std::vector<PortOp>* ops, uint64_t address,
                                             uint64_t size, std::vector<uint8_t>* out,
                                             uint64_t max_steps) {
  bool needs_core = true;  // the continue itself needs a live core
  uint64_t plan_bytes = ops == nullptr ? 0 : BatchPlanBytes(*ops, &needs_core);
  Status gate = CheckResponsive(needs_core);
  if (!gate.ok()) {
    // One failed record stands in for the unapplied plan and the continue.
    Note(telemetry::FlightPortOp::kContinue, 0, size, false);
    return gate;
  }
  // One fixed-latency charge for plan + continue + piggybacked read: this is the
  // overlapped drain's whole saving — the plan ops ride the continue round trip
  // instead of paying their own kDebugTransactionCost.
  board_->clock().Advance(DebugBatchCost(plan_bytes + size));
  transactions_->Increment();
  batches_->Increment();
  batched_ops_->Add((ops == nullptr ? 0 : ops->size()) + 2);
  if (ops != nullptr) {
    // The target is stopped while the queued ops apply (they commit before the
    // run-control release), so the plan sees a quiescent ring.
    RETURN_IF_ERROR(ApplyBatchOps(ops));
  }
  StopInfo stop = board_->Continue(max_steps);
  Note(telemetry::FlightPortOp::kContinue, stop.pc, size, true);
  RETURN_IF_ERROR(ReadWindow(address, size, out));
  bytes_read_->Add(size);
  return stop;
}

Status DebugPort::SetBreakpoint(uint64_t address) {
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kSetBreakpoint, address, 0, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  return board_->AddBreakpoint(address);
}

Status DebugPort::ClearBreakpoint(uint64_t address) {
  RETURN_IF_ERROR(CheckResponsive(/*needs_core=*/false));
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  board_->RemoveBreakpoint(address);
  return OkStatus();
}

void DebugPort::ClearAllBreakpoints() {
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  board_->ClearBreakpoints();
}

Status DebugPort::FlashPartition(uint64_t offset, const FirmwareImage::Payload& payload) {
  const uint64_t size = payload.size();
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kFlash, offset, size, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(FlashProgramCost(size));
  transactions_->Increment();
  flash_bytes_->Add(size);
  return board_->FlashProgram(offset, payload);
}

Status DebugPort::ResetTarget() {
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kReset, 0, 0, gate.ok());
  RETURN_IF_ERROR(gate);
  transactions_->Increment();
  resets_->Increment();
  board_->Reset();  // charges kRebootCost internally
  return OkStatus();
}

Status DebugPort::WarmRestoreCore() {
  // needs_core=false: like a reset, the restore request goes through the debug
  // unit's reset/halt logic, which answers even when the core is faulted or parked.
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kWarmRestore, 0, 0, gate.ok());
  RETURN_IF_ERROR(gate);
  transactions_->Increment();
  warm_restores_->Increment();
  board_->WarmRestore();  // charges kWarmRestoreCost internally
  if (board_->power_state() != PowerState::kRunning) {
    return FailedPreconditionError(
        StrFormat("warm restore left the target %s; a full reflash+reboot is needed",
                  PowerStateName(board_->power_state())));
  }
  return OkStatus();
}

Status DebugPort::InjectPeripheralEvent(const PeripheralEvent& event) {
  Status gate = CheckResponsive(/*needs_core=*/false);
  Note(telemetry::FlightPortOp::kPeripheral, static_cast<uint64_t>(event.kind),
       event.value, gate.ok());
  RETURN_IF_ERROR(gate);
  board_->clock().Advance(kDebugTransactionCost);
  transactions_->Increment();
  if (!board_->InjectPeripheralEvent(event)) {
    return ResourceExhaustedError("peripheral event queue saturated");
  }
  return OkStatus();
}

std::string DebugPort::DrainUart() {
  std::string text = board_->uart().Drain();
  if (flight_ != nullptr) {
    // The UART tail is the crash dump's most valuable column: every drained line
    // lands in the ring before any monitor decides what the text means.
    Note(telemetry::FlightPortOp::kUartDrain, 0, text.size(), true);
    flight_->RecordUartText(Now(), text);
  }
  return text;
}

std::vector<uint64_t> DebugPort::TakeBreakpointHits() { return board_->TakeBreakpointHits(); }

}  // namespace eof
