// Board state snapshot/restore — the EmbedFuzz-style fast path that replaces the
// Algorithm-1 reflash+reboot tax after crashes and periodic resets.
//
// Capture() runs once per deployment against a healthy post-boot board: one vectored
// DebugPort::RunBatch read plan pulls the whole RAM window across the link in chunks,
// plus the parked program counter and a per-partition flash checksum (the "flash
// shadow"). The RAM is kept sparsely, as its non-zero pages (RamPages): almost all of
// a freshly booted RAM is zero. Restore() first proves the flash shadow still matches
// (a kernel bug that scribbled on flash invalidates the resident code, so the warm
// path must not trust it) — gated by the flash controller's write counter so untouched
// flash costs one status-word read, not a whole-image checksum — then performs a warm
// core restore (DebugPort::WarmRestoreCore — no boot ROM, no reflash,
// kWarmRestoreCost instead of kRebootCost), rewrites RAM from the snapshot in ONE
// batched write (DebugPort::WriteRam: the link is charged for the whole RAM, the host
// copies only the pages that differ), and finishes with a bounded warm-resume
// handshake that parks the agent back in its executor loop.
//
// Any failure along the way returns a non-OK status with the board possibly half
// restored; callers MUST fall back to a full Deployment::ReflashAndReboot in that
// case (src/core/liveness.h wraps exactly that policy).
//
// Provenance warning (the libriscv lesson): a restored board can carry latent state
// a cold boot would not, so bugs first sighted in a snapshot campaign must be
// re-validated against a cold-boot board before they are believed — that oracle
// lives in the campaign scheduler, not here.

#ifndef SRC_HW_BOARD_SNAPSHOT_H_
#define SRC_HW_BOARD_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/hw/debug_port.h"
#include "src/hw/image.h"

namespace eof {

class BoardSnapshot {
 public:
  // Captures RAM, the parked PC, and the flash shadow of a healthy post-boot board.
  // The image must be the one the board currently runs (its partition table names
  // the flash regions worth fingerprinting).
  static Result<BoardSnapshot> Capture(DebugPort& port, const FirmwareImage& image);

  // Restores the captured state: flash-shadow audit, warm core restore, one batched
  // RAM write, warm-resume handshake. The audit is write-generation gated: one cheap
  // flash-controller counter read proves "no flash write since the last audit" and
  // skips the per-partition checksums entirely — the common case on the hot restore
  // path, where re-checksumming a multi-megabyte image would cost more than the
  // restore itself. Any flash write (host reflash or kernel scribble) forces a full
  // re-audit on the next restore. On ANY error the board may be half restored and
  // the caller must fall back to a full reflash+reboot.
  Status Restore(DebugPort& port) const;

  // How many full shadow audits Restore() has run (gating observability for tests).
  uint64_t shadow_audits() const { return shadow_audits_; }

  // Bytes of RAM the snapshot stands for: the full RAM size, which is what one
  // Restore() pushes over the link, however few pages the snapshot stores.
  uint64_t ram_bytes() const { return ram_.ram_bytes; }
  uint64_t captured_pc() const { return pc_; }

  // The captured RAM, as its non-zero pages.
  const RamPages& ram() const { return ram_; }

  // Writes `data` into the captured RAM at RAM offset `offset`, for tests that poison
  // the snapshot (e.g. planting a mailbox program so every restore replays hidden
  // state).
  Status PokeRamForTest(uint64_t offset, const std::vector<uint8_t>& data) {
    return ram_.Poke(offset, data);
  }

 private:
  // A partition whose flash must still hold its payload, as it did at capture.
  struct FlashShadow {
    std::string partition;
    uint64_t address = 0;  // absolute flash-window address of the payload
    const FirmwareImage::Payload* payload = nullptr;  // the image's; it outlives the snapshot
  };

  RamPages ram_;
  uint64_t pc_ = 0;
  std::vector<FlashShadow> flash_shadow_;
  // Flash-controller write count as of the last successful shadow audit (capture
  // counts as one). Restore() mutates these through a const snapshot: the audit
  // cache is observable state of the verification protocol, not of the snapshot.
  mutable uint64_t audited_write_count_ = 0;
  mutable uint64_t shadow_audits_ = 0;
};

}  // namespace eof

#endif  // SRC_HW_BOARD_SNAPSHOT_H_
