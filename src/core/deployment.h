// Deployment: one attached (board, image, debug port) trio plus the host-side helpers all
// fuzzers share — flashing every partition at its table offset, booting to the agent,
// writing mailbox test cases, reading agent status, and draining the coverage ring.
//
// This corresponds to the paper's per-target adaptation artifacts: the memory-layout
// analysis (partition table), the OpenOCD connection config, and the agent glue.

#ifndef SRC_CORE_DEPLOYMENT_H_
#define SRC_CORE_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/agent/agent_layout.h"
#include "src/common/coverage_types.h"
#include "src/common/status.h"
#include "src/kernel/cov_ring.h"
#include "src/core/image_builder.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/telemetry/telemetry.h"

namespace eof {

struct DeployOptions {
  std::string os_name;
  std::string board_name;  // "" = the OS's default evaluation board
  InstrumentationOptions instrumentation;
  uint64_t seed = 1;

  // Optional prebuilt image to deploy instead of building one from the fields above;
  // it must come from Deployment::BuildImageFor for the same os and board. Images are
  // immutable, so many deployments may share one.
  std::shared_ptr<const FirmwareImage> image;

  // The board session's telemetry; when set, the debug port registers its `link.*`
  // counters there, reflashes are traced as "reflash" spans, and delta-reflash
  // savings are journaled. nullptr = the port keeps a private registry (tests,
  // standalone deployments). Must outlive the deployment.
  telemetry::BoardTelemetry* telemetry = nullptr;
};

// Snapshot of the agent status block.
struct AgentStatusView {
  AgentState state = AgentState::kBooting;
  AgentError last_error = AgentError::kNone;
  uint32_t calls_done = 0;
  uint32_t progs_done = 0;
  uint32_t total_calls = 0;
};

class Deployment {
 public:
  // Builds the image, constructs the board, attaches the debug port, flashes, and boots to
  // the agent. On success the target is parked at executor_main (kIdle).
  static Result<std::unique_ptr<Deployment>> Create(const DeployOptions& options);

  // The image Create() builds for `options` when options.image is unset — build once,
  // then pass it as options.image to deploy it on many fresh boards.
  static Result<std::shared_ptr<const FirmwareImage>> BuildImageFor(
      const DeployOptions& options);

  Board& board() { return *board_; }
  DebugPort& port() { return *port_; }
  const FirmwareImage& image() const { return *image_; }
  const BoardSpec& board_spec() const { return board_->spec(); }

  // Restore every partition payload at its table offset and reboot — the StateRestoration
  // body of Algorithm 1 (lines 15-18). This is a DELTA reflash: a target-assisted flash
  // checksum proves whether each partition still holds its payload
  // (DebugPort::FlashHolds), and only partitions whose on-flash bytes actually changed
  // since the last flash are reprogrammed; proven-clean bytes are counted in
  // DebugPortStats::flash_skipped_bytes.
  Status ReflashAndReboot();

  // Absolute address of `symbol`, resolved from the image.
  Result<uint64_t> SymbolAddress(const std::string& symbol) const;

  // Writes an encoded program into the mailbox and raises the ready flag. Payload and
  // header travel in one round trip (the header write still publishes last, so the
  // flag-after-payload order the agent depends on is preserved). The two write ops
  // are the deployment's own and keep their buffers from case to case.
  Status WriteTestCase(const std::vector<uint8_t>& encoded);

  Result<AgentStatusView> ReadAgentStatus();

  // Parses a raw status block (as read from status_address()) into a view.
  static AgentStatusView ParseStatusBlock(const std::vector<uint8_t>& raw);

  // Absolute address of the agent status block.
  uint64_t status_address() const { return ram_base_ + kStatusBlockOffset; }

  // Enables or disables self-service bank flips: sets kBankFlipEnableBit in the
  // ring's active_bank word (the target checks it at every overflow) and switches
  // the host drains onto the two-bank protocol. Call while the target is stopped,
  // after every arm (deploy and cold restore re-zero the header word). One link
  // write; a no-op when the image carries no ring.
  Status SetBankFlipMode(bool enabled);
  bool bank_flip_mode() const { return flip_mode_; }

  // Drains the coverage ring and appends the attributed entries to `*out` (left as
  // it was on failure). Also returns entries dropped since last drain via `dropped`
  // when non-null; when `status` is non-null the agent status block is read in the
  // SAME round trip.
  //
  // Each bank header and a capacity-bounded entry prefetch are read speculatively in
  // one contiguous op, and the header is updated with an adapter-side
  // read-then-subtract (count -= drained, dropped -= reported) instead of a blind 0/0
  // write — entries the target appends between the read and the header update survive
  // for the next drain. The op list is MakeDrainPlan's, run immediately.
  //
  // Without bank flips the target never leaves bank 0 and only it is drained. With
  // SetBankFlipMode(true) both banks ride the same round trip and entries surface in
  // write order: the parked bank (the one the target flipped away from — its entries
  // are older) first, then the active one. The host never flips banks itself. The
  // op plan is the deployment's own and keeps its read buffers from drain to drain.
  Status DrainCoverage(std::vector<CovHit>* out, uint32_t* dropped = nullptr,
                       AgentStatusView* status = nullptr);

  // --- overlapped (double-buffered) drain ---
  //
  // MakeDrainPlan builds the op plan of the read+subtract drain above into `plan`:
  // bank 0 only, or — in bank-flip mode — the active_bank word plus both banks, then
  // (with `read_status`) a read of the agent status block. The plan's ops are
  // rewritten in place, so a plan kept by its caller keeps its read buffers. Ride it on
  // the next exec-continue via DebugPort::ContinueWithPlan — the drain then costs
  // zero extra round trips: the ops commit against the stopped target before the
  // continue releases the core, so every entry they cover is frozen — and hand the
  // stopped plan to FinishDrainPlan to order the banks (parked first), fetch any
  // prefetch-undershoot tails, append the entries to `*out` (left as it was on
  // failure), and adapt the prefetch window. If the continue failed, drop the plan on
  // the floor instead: nothing was applied, the ring is untouched. The status read
  // after the plan's own ops is ignored by FinishDrainPlan.
  struct DrainPlan {
    std::vector<PortOp> ops;
    uint32_t prefetch = 0;    // speculative entries carried per bank-read op
    bool both_banks = false;  // layout: active_bank word, then banks 0 and 1
  };
  void MakeDrainPlan(DrainPlan* plan, bool read_status = false);
  Status FinishDrainPlan(DrainPlan* plan, std::vector<CovHit>* out,
                         uint32_t* dropped = nullptr);

  // Reads the ring's version/capacity header words back from the booted target and
  // fails loudly on a layout mismatch (stale agent, corrupt RAM) — a silent mismatch
  // would read as permanently-empty coverage. Create() runs this after first boot.
  Status ValidateCovRing();

  CovRingLayout cov_ring() const { return ring_; }

 private:
  Deployment() = default;

  // Adjusts prefetch_hint_ after a drain observed `count` entries against a
  // speculative window of `prefetch`.
  void AdaptPrefetch(uint32_t count, uint32_t prefetch);

  // Parses one bank's header+prefetch read result (`op`), fetching any undershoot
  // tail with a follow-up read, and appends the entries to `out`. Returns the
  // dropped count the header reported.
  Result<uint32_t> CollectBank(const PortOp& op, uint32_t bank, uint32_t prefetch,
                               uint32_t* count_out, std::vector<CovHit>* out);

  std::shared_ptr<const FirmwareImage> image_;
  std::unique_ptr<Board> board_;
  std::unique_ptr<DebugPort> port_;
  telemetry::BoardTelemetry* telemetry_ = nullptr;
  CovRingLayout ring_;
  uint64_t ram_base_ = 0;
  bool flip_mode_ = false;       // self-service bank flips enabled (two-bank drains)
  uint32_t prefetch_hint_ = 64;  // adaptive entry prefetch for the drain
  std::vector<PortOp> mailbox_ops_;  // WriteTestCase's payload and header writes
  DrainPlan drain_plan_;             // DrainCoverage's plan
};

}  // namespace eof

#endif  // SRC_CORE_DEPLOYMENT_H_
