#include "src/agent/agent.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/kernel_fault.h"

namespace eof {
namespace {

// Cycles the agent burns per state-machine step outside call execution (mailbox polls,
// status updates) — keeps the PC moving while parked.
constexpr uint64_t kAgentStepCycles = 900;

}  // namespace

AgentFirmware::AgentFirmware(const FirmwareImage& image, std::unique_ptr<Os> os)
    : image_(image), os_(std::move(os)) {}

Status AgentFirmware::OnBoot(TargetEnv& env) {
  text_base_ = env.spec().text_base;
  auto handler = image_.symbols().AddressOf(os_->exception_symbol());
  if (!handler.ok()) {
    return handler.status();
  }
  exception_handler_addr_ = handler.value();

  CovRingLayout ring;
  ring.ram_offset = kCovRingOffset;
  ring.capacity = CovRingCapacityFor(env.spec().ram_bytes);
  ctx_ = std::make_unique<KernelContext>(env, image_, ring);

  env.EnterProgramPoint(text_base_ + kPpAgentStart.text_offset);
  env.ConsumeCycles(kApiBaseCycles * 8);  // ROM handoff, .data/.bss init

  RETURN_IF_ERROR(os_->Init(*ctx_));

  WriteStatus(env, AgentState::kWaiting);
  WriteError(env, AgentError::kNone);
  ctx_->LogLine("eof-agent: ready, os=" + os_->name());
  state_ = LoopState::kAtExecutorMain;
  return OkStatus();
}

bool AgentFirmware::PauseAt(TargetEnv& env, const ProgramPoint& point) {
  if (skip_pause_) {
    skip_pause_ = false;
    return false;
  }
  if (env.EnterProgramPoint(text_base_ + point.text_offset)) {
    skip_pause_ = true;
    return true;
  }
  return false;
}

void AgentFirmware::WriteStatus(TargetEnv& env, AgentState state) {
  uint64_t base = kStatusBlockOffset;
  (void)env.RamWriteU32(base + kStatusStateOffset, static_cast<uint32_t>(state));
  (void)env.RamWriteU32(base + kStatusCallsDoneOffset, static_cast<uint32_t>(call_index_));
  (void)env.RamWriteU32(base + kStatusProgsOffset, progs_done_);
  (void)env.RamWriteU32(base + kStatusTotalCallsOffset, total_calls_);
}

void AgentFirmware::WriteError(TargetEnv& env, AgentError error) {
  (void)env.RamWriteU32(kStatusBlockOffset + kStatusLastErrorOffset,
                        static_cast<uint32_t>(error));
}

template <typename Body>
bool AgentFirmware::RunTrapping(TargetEnv& env, const char* where, Body&& body) {
  try {
    body();
    return true;
  } catch (const KernelPanicSignal&) {
    // handle_exception(): vector to the OS exception function, freeze there.
    bool bp = env.EnterProgramPoint(exception_handler_addr_);
    env.LatchFault(exception_handler_addr_, std::string("kernel panic") + where);
    trap_info_.reason = bp ? HaltReason::kBreakpoint : HaltReason::kFault;
  } catch (const KernelAssertSignal& signal) {
    // Assertion text already went to the UART; the core parks in the abort loop.
    env.LatchHang(std::string("assertion") + where + ": " + signal.message);
    trap_info_.reason = HaltReason::kHang;
  } catch (const KernelHangSignal& signal) {
    env.LatchHang(signal.message);
    trap_info_.reason = HaltReason::kHang;
  }
  trapped_ = true;
  return false;
}

bool AgentFirmware::ExecuteCurrentCall(TargetEnv& env) {
  // ValidateProgram accepted these bytes, so every read below stays in bounds and every
  // result ref names an earlier call. Args resolve over the previous call's.
  const uint32_t offset = call_offsets_[call_index_];
  ByteReader reader(mailbox_.data() + offset, mailbox_.size() - offset);
  const uint32_t api_id = reader.GetU32();
  args_.resize(reader.GetU8());
  for (ArgValue& value : args_) {
    value.scalar = 0;
    value.bytes.clear();
    switch (static_cast<WireArgKind>(reader.GetU8())) {
      case WireArgKind::kScalar:
        value.scalar = reader.GetU64();
        break;
      case WireArgKind::kResultRef:
        value.scalar = static_cast<uint64_t>(results_[reader.GetU16()]);
        break;
      case WireArgKind::kBytes:
        value.bytes.resize(reader.GetU32());
        reader.GetBytes(value.bytes.data(), value.bytes.size());
        break;
    }
  }

  int64_t result = 0;
  if (!RunTrapping(env, "", [&] {
        auto outcome = os_->CallApi(*ctx_, api_id, args_);
        // Unknown API or arity mismatch: the agent rejects the call but keeps executing.
        result = outcome.ok() ? outcome.value() : -1;
        os_->Tick(*ctx_);
      })) {
    return false;
  }
  // Pending injected peripheral events preempt the task between calls (ISR dispatch).
  PeripheralEvent event;
  while (env.NextPeripheralEvent(&event)) {
    if (!RunTrapping(env, " in ISR", [&] { os_->OnPeripheralEvent(*ctx_, event); })) {
      return false;
    }
  }
  results_.push_back(result);
  ++total_calls_;
  ++call_index_;
  // Inter-call settling delay (scheduler, housekeeping) — the dominant per-call latency
  // on real hardware, and the carrier of the instrumentation execution overhead.
  ctx_->YieldDelay();
  return true;
}

StopInfo AgentFirmware::Resume(TargetEnv& env, uint64_t max_steps) {
  StopInfo stop;
  if (trapped_) {
    // Nothing executes any more; the board reports the frozen state.
    return trap_info_;
  }
  // The host only touches ring RAM (drains, bank flips) while we are stopped, i.e.
  // between Resume calls: re-read the host-owned ring header words this window.
  ctx_->BeginResumeWindow();
  for (uint64_t step = 0; step < max_steps; ++step) {
    env.ConsumeCycles(kAgentStepCycles);
    switch (state_) {
      case LoopState::kAtExecutorMain: {
        if (PauseAt(env, kPpExecutorMain)) {
          stop.reason = HaltReason::kBreakpoint;
          return stop;
        }
        auto flag = env.RamReadU32(kMailboxOffset + kMailboxFlagOffset);
        if (!flag.ok() || flag.value() == 0) {
          WriteStatus(env, AgentState::kWaiting);
          // The idle poll loop keeps walking its body, so the PC a debugger samples
          // varies from poll to poll (a parked-but-healthy core is not a stall).
          env.ConsumeCycles(32 + (++idle_spins_ % 61) * 16);
          stop.reason = HaltReason::kIdle;
          return stop;
        }
        state_ = LoopState::kAtReadProg;
        break;
      }
      case LoopState::kAtReadProg: {
        if (PauseAt(env, kPpReadProg)) {
          stop.reason = HaltReason::kBreakpoint;
          return stop;
        }
        WriteStatus(env, AgentState::kReading);
        auto len = env.RamReadU32(kMailboxOffset + kMailboxLenOffset);
        uint32_t prog_len = len.ok() ? len.value() : 0;
        AgentError error = AgentError::kTruncated;
        if (prog_len <= kMailboxMaxBytes &&
            env.RamReadInto(kMailboxOffset + kMailboxDataOffset, prog_len, &mailbox_).ok()) {
          error = ValidateProgram(mailbox_.data(), mailbox_.size(), &call_offsets_);
          env.ConsumeCycles(kCopyPerByteCycles * prog_len);
        }
        // Consume the mailbox either way.
        (void)env.RamWriteU32(kMailboxOffset + kMailboxFlagOffset, 0);
        if (error != AgentError::kNone) {
          WriteError(env, error);
          ++progs_done_;
          WriteStatus(env, AgentState::kRejected);
          state_ = LoopState::kAtExecutorMain;
          break;
        }
        WriteError(env, AgentError::kNone);
        call_index_ = 0;
        results_.clear();
        state_ = LoopState::kAtExecuteOne;
        break;
      }
      case LoopState::kAtExecuteOne: {
        if (PauseAt(env, kPpExecuteOne)) {
          stop.reason = HaltReason::kBreakpoint;
          return stop;
        }
        WriteStatus(env, AgentState::kExecuting);
        state_ = LoopState::kExecuting;
        break;
      }
      case LoopState::kExecuting: {
        if (call_index_ >= call_offsets_.size()) {
          ++progs_done_;
          WriteStatus(env, AgentState::kDone);
          state_ = LoopState::kAtExecutorMain;
          break;
        }
        // Publish the call index about to execute so every coverage entry the call
        // (and the housekeeping after it) appends carries its attribution.
        ctx_->SetCurrentCall(static_cast<uint32_t>(call_index_));
        if (!ExecuteCurrentCall(env)) {
          return trap_info_;  // trap latched; board freezes the PC
        }
        if (ctx_->cov_overflow_pending()) {
          state_ = LoopState::kAtCovBufFull;
        }
        break;
      }
      case LoopState::kAtCovBufFull: {
        // Double-buffered mode: if the host already collected the parked bank, park
        // the full one and flip onto it — no halt, no host round trip; the parked
        // bank rides out at the next stop. skip_pause_ means we are resuming from
        // the pause below (the host just drained both banks), so carry on in place.
        if (!skip_pause_ && ctx_->TryBankFlip()) {
          ctx_->ClearCovOverflow();
          state_ = LoopState::kExecuting;
          break;
        }
        if (PauseAt(env, kPpCovBufFull)) {
          stop.reason = HaltReason::kBreakpoint;
          return stop;
        }
        // If the host never armed _kcmp_buf_full it does not drain mid-program; the agent
        // carries on and further entries are dropped (counted in the ring header).
        ctx_->ClearCovOverflow();
        state_ = LoopState::kExecuting;
        break;
      }
    }
  }
  stop.reason = HaltReason::kQuantumExpired;
  return stop;
}

Result<FirmwareFactory> MakeAgentFactory(const std::string& os_name) {
  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(os_name));
  OsFactory os_factory = info.factory;
  return FirmwareFactory([os_factory](const FirmwareImage& image) {
    return std::make_unique<AgentFirmware>(image, os_factory());
  });
}

}  // namespace eof
