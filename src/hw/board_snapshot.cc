#include "src/hw/board_snapshot.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/hw/stop_info.h"

namespace eof {

namespace {

// Warm-resume handshake bound. Two rounds park a clean snapshot (breakpoint stop at
// the executor loop, then the idle report); the headroom absorbs a snapshot that
// carries pending work, e.g. a mailbox program the agent consumes on the way back.
constexpr int kWarmResumeRounds = 6;

}  // namespace

Result<BoardSnapshot> BoardSnapshot::Capture(DebugPort& port, const FirmwareImage& image) {
  BoardSnapshot snapshot;
  const BoardSpec& spec = port.spec();

  // One vectored read plan covers the whole RAM window: a single link round trip
  // plus the per-byte transfer cost, exactly like any other batched transaction.
  // Only the non-zero pages are kept.
  std::vector<PortOp> plan;
  for (uint64_t offset = 0; offset < spec.ram_bytes; offset += kRamChunkBytes) {
    uint64_t size = std::min(kRamChunkBytes, spec.ram_bytes - offset);
    plan.push_back(PortOp::Read(spec.ram_base + offset, size));
  }
  RETURN_IF_ERROR(port.RunBatch(&plan));
  snapshot.ram_.ram_bytes = spec.ram_bytes;
  for (const PortOp& op : plan) {
    snapshot.ram_.AppendNonZero(op.address - spec.ram_base, op.result);
  }

  ASSIGN_OR_RETURN(snapshot.pc_, port.ReadPC());

  // Flash shadow: a target-side checksum per payload-bearing partition. Restore()
  // re-checks these before trusting the resident code.
  for (const Partition& partition : image.partition_table().partitions) {
    const FirmwareImage::Payload* payload = image.PayloadOf(partition.name);
    if (payload == nullptr) {
      continue;  // raw partitions (nvs) carry no payload to fingerprint
    }
    FlashShadow shadow{partition.name, spec.flash_base + partition.offset, payload};
    ASSIGN_OR_RETURN(bool held, port.FlashHolds(shadow.address, *payload));
    if (!held) {
      return FailedPreconditionError(
          StrFormat("partition '%s' does not hold the image's payload; a snapshot needs "
                    "a board booted from it",
                    partition.name.c_str()));
    }
    snapshot.flash_shadow_.push_back(std::move(shadow));
  }
  // The checksums above audited the flash as it stands right now; remember the
  // controller's write count so restores can skip re-auditing untouched flash.
  ASSIGN_OR_RETURN(snapshot.audited_write_count_, port.ReadFlashWriteCount());
  return snapshot;
}

Status BoardSnapshot::Restore(DebugPort& port) const {
  if (ram_.ram_bytes == 0) {
    return FailedPreconditionError("empty board snapshot");
  }
  // 1. The resident code must still be what the snapshot ran on: a kernel bug that
  // scribbled on flash means the warm path cannot trust the image and the caller
  // must reflash. The audit is generation-gated: when the flash controller's write
  // counter has not moved since the last audit, nothing can have changed and the
  // per-partition checksums (priced by the byte over the whole image) are skipped —
  // one fixed-latency counter read is the entire hot-path cost.
  ASSIGN_OR_RETURN(uint64_t write_count, port.ReadFlashWriteCount());
  if (write_count != audited_write_count_) {
    ++shadow_audits_;
    for (const FlashShadow& shadow : flash_shadow_) {
      ASSIGN_OR_RETURN(bool held, port.FlashHolds(shadow.address, *shadow.payload));
      if (!held) {
        return FailedPreconditionError(
            StrFormat("flash shadow mismatch in partition '%s'; snapshot restore "
                      "requires a full reflash",
                      shadow.partition.c_str()));
      }
    }
    // Every partition matched: these bytes are re-certified as of `write_count`.
    audited_write_count_ = write_count;
  }

  // 2. Warm core restore: clears the fault latch and re-enters the agent without
  // the boot ROM. From here on a failure leaves the board half restored.
  RETURN_IF_ERROR(port.WarmRestoreCore());

  // 3. The captured RAM image goes back in ONE batched write of the whole RAM. It
  // lands after the warm boot's own status/banner writes, so the snapshot bytes win.
  RETURN_IF_ERROR(port.WriteRam(ram_));

  // 4. Warm-resume handshake: walk the agent back to its idle park so the next
  // test case finds the same state a cold boot would present.
  for (int round = 0; round < kWarmResumeRounds; ++round) {
    ASSIGN_OR_RETURN(StopInfo stop, port.Continue());
    if (stop.reason == HaltReason::kIdle) {
      return OkStatus();
    }
    if (stop.reason == HaltReason::kPoweredOff) {
      return FailedPreconditionError("target lost power during warm resume");
    }
  }
  // A snapshot carrying pending work can legitimately use every round without
  // reporting idle; whatever state the board is in now belongs to the executor's
  // own monitors (and, for bugs, to the cold-boot validation oracle).
  return OkStatus();
}

}  // namespace eof
