// The host's only channel to the target: a JTAG/SWD-style debug port, equivalent to the
// OpenOCD + GDB/MI stack the paper drives (§4.3.1). Every operation costs virtual time per
// the src/hw/timing.h model, and every operation can time out — either because the link
// was severed (injected for watchdog tests) or because the target never booted. The fuzzer
// layers (src/core, src/baselines) are written strictly against this interface.

#ifndef SRC_HW_DEBUG_PORT_H_
#define SRC_HW_DEBUG_PORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/hw/board.h"
#include "src/hw/stop_info.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

namespace eof {

// A point-in-time view over the port's `link.*` telemetry counters. The counters in
// the MetricsRegistry are the single source of truth; this struct only exists so
// callers can read the link ledger without naming metric strings.
struct DebugPortStats {
  uint64_t transactions = 0;  // link round trips (a committed batch counts once)
  uint64_t batches = 0;       // committed RunBatch / ContinueWithRead round trips
  uint64_t batched_ops = 0;   // ops carried inside those batches
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t timeouts = 0;
  uint64_t flash_bytes = 0;          // bytes actually programmed
  uint64_t flash_skipped_bytes = 0;  // bytes the delta-reflash cache proved unchanged
  uint64_t resets = 0;
  uint64_t warm_restores = 0;  // snapshot-path core restores (no boot ROM, no reflash)
};

// Reads the `link.*` counters out of a registry snapshot (per-board, diffed, or
// farm-merged — snapshots compose with Diff/Merge, so this replaces the old
// field-by-field Accumulate()).
DebugPortStats DebugPortStatsFromSnapshot(const telemetry::MetricsSnapshot& snapshot);

// Chunk size of whole-RAM transfers (snapshot capture and restore). Chunking keeps
// individual PortOp payloads bounded without changing the cost model (a batch pays one
// fixed latency plus the per-byte cost of all payloads).
inline constexpr uint64_t kRamChunkBytes = 64 * 1024;

// One queued operation of a vectored debug-link batch (DebugPort::RunBatch). Ops are
// queued host-side and committed in one link round trip, like OpenOCD's queued JTAG
// transfers; read results land back in the op records on commit.
struct PortOp {
  enum class Kind : uint8_t {
    kRead,           // read `size` bytes at `address` (RAM or flash window) into `result`
    kWrite,          // write `data` at `address` (RAM window)
    kSubU32,         // saturating mem[address] -= LE u32 taken from an earlier read op's
                     // result (adapter-side read-modify-write; atomic w.r.t. the target)
    kSetBreakpoint,  // arm a breakpoint at `address`
  };

  Kind kind = Kind::kRead;
  uint64_t address = 0;
  uint64_t size = 0;            // kRead: byte count
  std::vector<uint8_t> data;    // kWrite: payload
  int operand_op = -1;          // kSubU32: index of the earlier kRead op in this batch
  uint64_t operand_offset = 0;  // kSubU32: byte offset of the LE u32 minuend in that read
  std::vector<uint8_t> result;  // kRead: filled on commit

  static PortOp Read(uint64_t address, uint64_t size) {
    PortOp op;
    op.kind = Kind::kRead;
    op.address = address;
    op.size = size;
    return op;
  }
  static PortOp Write(uint64_t address, std::vector<uint8_t> data) {
    PortOp op;
    op.kind = Kind::kWrite;
    op.address = address;
    op.data = std::move(data);
    return op;
  }
  static PortOp SubU32(uint64_t address, int operand_op, uint64_t operand_offset) {
    PortOp op;
    op.kind = Kind::kSubU32;
    op.address = address;
    op.operand_op = operand_op;
    op.operand_offset = operand_offset;
    return op;
  }
  static PortOp SetBp(uint64_t address) {
    PortOp op;
    op.kind = Kind::kSetBreakpoint;
    op.address = address;
    return op;
  }
};

class DebugPort {
 public:
  // The board must outlive the port. `registry` is where the port registers its
  // `link.*` counters; pass the board session's registry to fold link traffic into
  // that board's telemetry, or nullptr to let the port own a private registry.
  explicit DebugPort(Board* board, telemetry::MetricsRegistry* registry = nullptr);

  // Attaches to the target's debug unit; fails for boards without one (Table 1 boundary).
  Status Connect();
  void Disconnect() { attached_ = false; }
  bool attached() const { return attached_; }

  // Memory access by absolute address (flash or RAM window).
  Result<std::vector<uint8_t>> ReadMem(uint64_t address, uint64_t size);
  Status WriteMem(uint64_t address, const std::vector<uint8_t>& data);

  // Commits a vectored batch: every queued op executes in order against the target in
  // ONE link round trip (a single fixed-latency charge plus the per-byte cost of all
  // payloads — see DebugBatchCost in src/hw/timing.h). An empty batch is free. On a
  // severed or unresponsive link the whole batch fails with one timeout and NO op is
  // applied; once committing, an op error (bad window, breakpoint budget) stops the
  // batch with earlier ops already applied, like a partially-drained JTAG queue.
  Status RunBatch(std::vector<PortOp>* ops);

  // Rewrites the whole RAM window from `image` (a sparse copy of the full RAM). The
  // link sees what RunBatch sees for a plan of kRamChunkBytes writes covering RAM:
  // same gate, same price, same counters and one kWrite flight record per chunk. The
  // host copies only the pages that differ (Board::LoadRam).
  Status WriteRam(const RamPages& image);

  // Target-assisted content checksum (ChecksumBytes over the flash or RAM window), computed
  // on the target side so only the digest crosses the link. Virtual time is charged by
  // the byte.
  Result<uint64_t> ChecksumMem(uint64_t address, uint64_t size);

  // Whether the flash at `address` still holds `payload`: on a real link, a ChecksumMem
  // over the payload's range that the host compares with the payload's own checksum. The
  // delta reflash and the snapshot flash shadow prove a partition unchanged this way. The
  // target pays exactly what that ChecksumMem costs; the host answers from Flash::Holds,
  // which reads no payload the flash still maps.
  Result<bool> FlashHolds(uint64_t address, const FirmwareImage::Payload& payload);

  // Records `bytes` of flash programming skipped by the delta-reflash cache. Pure
  // host-side accounting: no link traffic, no virtual-time charge.
  void NoteFlashSkipped(uint64_t bytes) { flash_skipped_bytes_->Add(bytes); }

  // Flash-controller write counter: one status-word read through the memory AP (a
  // single fixed-latency transaction, no payload). The counter bumps on every flash
  // programming operation — host reflashes and target-side scribbles alike — so a
  // snapshot can prove "flash untouched since my last shadow audit" for the price
  // of one link round trip instead of re-checksumming every partition.
  Result<uint64_t> ReadFlashWriteCount();

  // Current program counter (watchdog #2 probes this around exec-continue).
  Result<uint64_t> ReadPC();

  // exec-continue: run the target until a stop condition.
  Result<StopInfo> Continue(uint64_t max_steps = Board::kDefaultQuantum);

  // exec-continue with a piggybacked post-stop memory read in the same round trip
  // (GDB/MI-style stop-event coalescing: the stop reply carries the frame). `out`
  // receives the window's bytes as they are after the stop condition latched.
  Result<StopInfo> ContinueWithRead(uint64_t address, uint64_t size,
                                    std::vector<uint8_t>* out,
                                    uint64_t max_steps = Board::kDefaultQuantum);

  // exec-continue with a prepended op plan AND a piggybacked post-stop read, all in
  // one round trip: the queued ops apply against the stopped target first (RunBatch
  // semantics — same op validation, same partially-applied-on-error behavior), then
  // the core is released and the read lands after the next stop latches. One
  // fixed-latency charge covers everything, which is what lets a double-buffered
  // coverage drain ride the next exec's continue for free. Severed-link semantics
  // match RunBatch: one timeout, nothing applied, the core not released.
  Result<StopInfo> ContinueWithPlan(std::vector<PortOp>* ops, uint64_t address,
                                    uint64_t size, std::vector<uint8_t>* out,
                                    uint64_t max_steps = Board::kDefaultQuantum);

  Status SetBreakpoint(uint64_t address);
  Status ClearBreakpoint(uint64_t address);
  void ClearAllBreakpoints();

  // Programs a payload of the installed image at `offset` (the StateRestoration reflash
  // path).
  Status FlashPartition(uint64_t offset, const FirmwareImage::Payload& payload);

  // Hardware reset; the target re-runs its boot ROM against current flash contents.
  Status ResetTarget();

  // Warm core restore (the snapshot fast path): halts the core and re-enters the
  // agent without the boot ROM's power cycle, charging kWarmRestoreCost instead of
  // kRebootCost. RAM comes back zeroed and armed breakpoints survive; the caller is
  // expected to rewrite memory from its snapshot in one batched write. Fails like a
  // reset would on a severed link, and reports FailedPrecondition when the warm
  // boot parks the core (corrupted flash) — the caller must fall back to a full
  // reflash+reboot in that case.
  Status WarmRestoreCore();

  // Captured UART output since the last drain (the paper redirects this to stdout and the
  // log monitor greps it). Works even when the core is wedged — it is a separate wire.
  std::string DrainUart();

  // Hardware-breakpoint hits recorded by the debug unit since the last call.
  std::vector<uint64_t> TakeBreakpointHits();

  VirtualTime Now() const { return board_->clock().Now(); }

  // The target's memory map (the snapshot planner sizes its RAM read plan from it).
  const BoardSpec& spec() const { return board_->spec(); }

  // Samples the bench ammeter on the target's supply rail (§6 extension). This is a
  // separate physical channel: it works even when the debug link is severed.
  uint32_t SamplePowerMilliAmps() const { return board_->PowerDrawMilliAmps(); }

  // Injects a peripheral event (GPIO toggle, serial RX byte...) through the bench signal
  // generator attached to the target (§6 extension). Link-gated like everything else.
  Status InjectPeripheralEvent(const PeripheralEvent& event);

  // Severs / restores the physical link. While severed, every operation burns the link
  // timeout and fails — this is what watchdog #1 reacts to.
  void InjectLinkFailure(bool severed) { link_severed_ = severed; }
  bool link_severed() const { return link_severed_; }

  // Attaches the board session's flight recorder: every link operation (and every
  // drained UART line) is appended to its bounded rings. nullptr detaches. The
  // recorder must outlive the port (or be detached first) and recording follows the
  // port's own single-session thread confinement.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) { flight_ = recorder; }
  telemetry::FlightRecorder* flight_recorder() const { return flight_; }

  // Current values of the port's `link.*` counters, materialized on demand.
  DebugPortStats stats() const;

  // The registry this port's counters live in (the board session's, or the private
  // fallback). Snapshot it to diff link traffic across a probe window.
  const telemetry::MetricsRegistry& registry() const { return *registry_; }

  // Escape hatch for tests and the campaign harness; production fuzzer code must not use.
  Board& board_for_test() { return *board_; }

 private:
  // Returns a TimeoutError (burning kLinkTimeout) when the link is severed or the target's
  // debug unit is unresponsive (never-booted cores hold the DAP in reset on our boards).
  Status CheckResponsive(bool needs_core);

  // What a target-side checksum of [address, address + size) costs: the gate, the flight
  // note, the per-byte price and one transaction. ChecksumMem and FlashHolds share it.
  Status ChargeChecksum(uint64_t address, uint64_t size);

  // Window-resolved access without cost/stat accounting (shared by single ops and
  // batch commit). Reads resolve against RAM or flash and replace `*out`, keeping its
  // capacity for RAM reads; writes only resolve against RAM.
  Status ReadWindow(uint64_t address, uint64_t size, std::vector<uint8_t>* out) const;
  Status WriteWindow(uint64_t address, const std::vector<uint8_t>& data);

  // Payload byte total of a queued plan (per-op accounting mirrors RunBatch's cost
  // table); sets *needs_core when any op requires a live core.
  static uint64_t BatchPlanBytes(const std::vector<PortOp>& ops, bool* needs_core);

  // The link side of committing a batch of `op_count` ops moving `total_bytes`: the
  // responsiveness gate (a failure burns one timeout and leaves one failed flight
  // record at `front_address`), then one DebugBatchCost charge and the batch counters.
  Status ChargeBatch(uint64_t front_address, uint64_t op_count, uint64_t total_bytes,
                     bool needs_core);

  // Applies already-committed batch ops in order (flight notes + byte counters);
  // shared by RunBatch and ContinueWithPlan after their gate/cost accounting.
  Status ApplyBatchOps(std::vector<PortOp>* ops);

  // Appends one record to the attached flight recorder; no-op when detached.
  void Note(telemetry::FlightPortOp op, uint64_t address, uint64_t size, bool ok) {
    if (flight_ != nullptr) {
      flight_->RecordPortOp(Now(), op, address, size, ok);
    }
  }

  Board* board_;
  bool attached_ = false;
  bool link_severed_ = false;
  telemetry::FlightRecorder* flight_ = nullptr;

  std::unique_ptr<telemetry::MetricsRegistry> owned_registry_;  // set iff none was passed
  telemetry::MetricsRegistry* registry_;
  telemetry::Counter* transactions_;
  telemetry::Counter* batches_;
  telemetry::Counter* batched_ops_;
  telemetry::Counter* bytes_read_;
  telemetry::Counter* bytes_written_;
  telemetry::Counter* timeouts_;
  telemetry::Counter* flash_bytes_;
  telemetry::Counter* flash_skipped_bytes_;
  telemetry::Counter* resets_;
  telemetry::Counter* warm_restores_;
};

}  // namespace eof

#endif  // SRC_HW_DEBUG_PORT_H_
