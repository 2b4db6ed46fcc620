#include "src/core/executor.h"

#include "src/common/logging.h"
#include "src/hw/timing.h"

namespace eof {
namespace {

// Rounds of exec-continue the executor tolerates before consulting the watchdogs.
constexpr int kMaxContinueRounds = 6;

// Virtual cost of a human walking over to a bricked board when watchdogs are disabled
// (the ablation's "manual intervention").
constexpr VirtualDuration kManualInterventionCost = 30 * kVirtualMinute;

}  // namespace

ExecStats ExecStatsFromSnapshot(const telemetry::MetricsSnapshot& snapshot) {
  ExecStats stats;
  stats.rejected = snapshot.CounterValue("exec.rejected");
  stats.stalls = snapshot.CounterValue("exec.stalls");
  stats.timeouts = snapshot.CounterValue("exec.timeouts");
  stats.restores = snapshot.CounterValue("exec.restores");
  stats.snapshot_restores = snapshot.CounterValue("exec.snapshot_restores");
  stats.snapshot_bytes = snapshot.CounterValue("exec.snapshot_bytes");
  return stats;
}

ExecStats TargetExecutor::stats() const {
  ExecStats stats;
  stats.rejected = rejected_->Value();
  stats.stalls = stalls_->Value();
  stats.timeouts = timeouts_->Value();
  stats.restores = restores_->Value();
  stats.snapshot_restores = snapshot_restores_->Value();
  stats.snapshot_bytes = snapshot_bytes_->Value();
  return stats;
}

Result<std::unique_ptr<TargetExecutor>> TargetExecutor::Create(const ExecutorOptions& options,
                                                               Rng* session_rng) {
  std::unique_ptr<TargetExecutor> executor(new TargetExecutor(options, session_rng));
  RETURN_IF_ERROR(executor->Setup());
  return executor;
}

Status TargetExecutor::Setup() {
  telemetry_ = options_.telemetry;
  if (telemetry_ == nullptr) {
    // Standalone session (tests, repro, single-board tools): instrumentation stays
    // live against a private, journal-less registry.
    owned_telemetry_ = std::make_unique<telemetry::BoardTelemetry>(
        /*worker=*/0, options_.seed, /*sink=*/nullptr);
    telemetry_ = owned_telemetry_.get();
  }
  telemetry::MetricsRegistry& registry = telemetry_->registry();
  execs_ = registry.RegisterCounter("exec.execs");
  rejected_ = registry.RegisterCounter("exec.rejected");
  stalls_ = registry.RegisterCounter("exec.stalls");
  timeouts_ = registry.RegisterCounter("exec.timeouts");
  restores_ = registry.RegisterCounter("exec.restores");
  snapshot_restores_ = registry.RegisterCounter("exec.snapshot_restores");
  snapshot_bytes_ = registry.RegisterCounter("exec.snapshot_bytes");
  edges_drained_ = registry.RegisterCounter("exec.edges_drained");
  overlapped_drains_ = registry.RegisterCounter("exec.overlapped_drains");
  drain_overlap_saved_us_ = registry.RegisterCounter("exec.drain_overlap_saved_us");
  local_coverage_ = registry.RegisterGauge("exec.local_coverage");

  // The deploy span runs from power-on (virtual time 0 on a fresh board) to the
  // target parked at executor_main with breakpoints armed.
  telemetry::Tracer::Span deploy_span = telemetry_->tracer().Begin("deploy", 0);

  DeployOptions deploy;
  deploy.os_name = options_.os_name;
  deploy.board_name = options_.board_name;
  deploy.instrumentation = options_.instrumentation;
  deploy.seed = options_.seed;
  deploy.telemetry = telemetry_;
  ASSIGN_OR_RETURN(deployment_, Deployment::Create(deploy));
  // From here on every link op and drained UART line lands in the session's flight
  // recorder (deploy-time traffic is deliberately outside the window: the rings
  // should hold the conversation leading up to a crash, not the flash protocol).
  deployment_->port().set_flight_recorder(&flight_);

  ASSIGN_OR_RETURN(executor_main_addr_, deployment_->SymbolAddress("executor_main"));
  ASSIGN_OR_RETURN(cov_full_addr_, deployment_->SymbolAddress("_kcmp_buf_full"));
  if (options_.exception_monitor) {
    // Resolution is host-side (symbol table); the breakpoint itself is planted by
    // ArmBreakpoints so re-arming after a restore stays one link batch.
    ASSIGN_OR_RETURN(exception_addr_,
                     exception_monitor_.Resolve(*deployment_, options_.exception_symbol));
  }
  // Self-service bank flips pair with the overlapped drain: the target parks full
  // banks at call boundaries instead of stalling for host service, and the host
  // collects both banks per drain. Only meaningful when coverage is being drained
  // at all.
  bank_flip_ = options_.overlapped_drain && options_.coverage_feedback;
  RETURN_IF_ERROR(ArmBreakpoints());

  if (options_.restore_mode == RestoreMode::kSnapshot) {
    // Capture the healthy post-boot state once per deployment, while the board is
    // parked at executor_main with breakpoints armed. The capture is deploy-time
    // traffic, so it stays outside the flight rings like the flash protocol does.
    deployment_->port().set_flight_recorder(nullptr);
    ASSIGN_OR_RETURN(BoardSnapshot snapshot,
                     BoardSnapshot::Capture(deployment_->port(), deployment_->image()));
    snapshot_ = std::make_unique<BoardSnapshot>(std::move(snapshot));
    deployment_->port().set_flight_recorder(&flight_);
  }

  if (options_.power_probe) {
    watchdog_.EnablePowerProbe();
  }
  start_time_ = deployment_->port().Now();
  telemetry_->tracer().End(deploy_span, deployment_->port().Now(), /*journal=*/true);
  return OkStatus();
}

Status TargetExecutor::ArmBreakpoints() {
  // All workflow breakpoints travel in one link round trip.
  std::vector<PortOp> ops;
  ops.push_back(PortOp::SetBp(executor_main_addr_));
  if (options_.coverage_feedback) {
    ops.push_back(PortOp::SetBp(cov_full_addr_));
  }
  if (options_.exception_monitor) {
    ops.push_back(PortOp::SetBp(exception_addr_));
  }
  RETURN_IF_ERROR(deployment_->port().RunBatch(&ops));
  if (bank_flip_) {
    // Every path that arms also just booted (deploy, cold restore), which zeroed
    // the ring header: re-grant the self-service flip bit alongside the arming.
    RETURN_IF_ERROR(deployment_->SetBankFlipMode(true));
  }
  return OkStatus();
}

void TargetExecutor::DumpFlight(const char* reason, ExecOutcome* outcome) {
  telemetry::FlightDump dump = flight_.Dump(reason, deployment_->port().Now());
  // Which restore mode produced the board state the trigger fired on — the column
  // that separates "crashed on a cold-booted board" from "crashed after a warm
  // snapshot restore" when auditing provenance.
  dump.last_restore = last_restore_;
  telemetry_->EmitEvent(dump.at, "crash_dump", dump.ToEventFields());
  if (outcome != nullptr) {
    outcome->dump = std::move(dump);
  }
}

Status TargetExecutor::Restore(const char* reason) {
  restores_->Increment();
  execs_since_reset_ = 0;
  watchdog_.Reset();
  flight_.RecordEvent(deployment_->port().Now(), "restore", restores_->Value());
  telemetry::Tracer::Span span =
      telemetry_->tracer().Begin("watchdog_recovery", deployment_->port().Now());
  bool warm = false;
  if (options_.restore_mode == RestoreMode::kReflash) {
    RETURN_IF_ERROR(StateRestoration(*deployment_));
  } else if (options_.restore_mode == RestoreMode::kSnapshot) {
    // Warm fast path; any mid-restore failure (severed link, flash-shadow
    // mismatch, warm boot failure) falls back to the full reflash inside.
    RETURN_IF_ERROR(StateRestorationWithSnapshot(*deployment_, snapshot_.get(), &warm));
  } else {
    RETURN_IF_ERROR(deployment_->port().ResetTarget());
    if (deployment_->board().power_state() != PowerState::kRunning) {
      // Reboot alone did not bring the target back (damaged image). A human reflashes
      // eventually; until then the campaign pays the walk-over cost.
      deployment_->board().clock().Advance(kManualInterventionCost);
      RETURN_IF_ERROR(StateRestoration(*deployment_));
    }
  }
  Status status = OkStatus();
  if (warm) {
    snapshot_restores_->Increment();
    snapshot_bytes_->Add(snapshot_->ram_bytes());
    last_restore_ = "snapshot";
    // Breakpoints survive a warm restore (the debug unit is never power-cycled),
    // so no re-arm round trip is needed; the flight rings keep running too — the
    // board session continues.
  } else {
    last_restore_ = "cold";
    // A cold boot wiped the board-session context the rings describe.
    flight_.Clear();
    status = ArmBreakpoints();
  }
  telemetry_->EmitEvent(deployment_->port().Now(), "liveness_reset",
                        {telemetry::EventField::Text("reason", reason),
                         telemetry::EventField::Uint("restores", restores_->Value()),
                         telemetry::EventField::Text("restore", last_restore_)});
  telemetry_->tracer().End(span, deployment_->port().Now(), /*journal=*/true);
  return status;
}

void TargetExecutor::HarvestCoverage(ExecOutcome* outcome, AgentStatusView* status_out,
                                     bool* status_ok) {
  telemetry::Tracer::Span span =
      telemetry_->tracer().Begin("coverage_drain", deployment_->port().Now());
  auto entries = deployment_->DrainCoverage(/*dropped=*/nullptr, status_out);
  telemetry_->tracer().End(span, deployment_->port().Now());
  if (status_ok != nullptr) {
    *status_ok = entries.ok() && status_out != nullptr;
  }
  if (!entries.ok()) {
    return;
  }
  edges_drained_->Add(entries.value().size());
  flight_.RecordEvent(deployment_->port().Now(), "drain", entries.value().size());
  outcome->hits.insert(outcome->hits.end(), entries.value().begin(),
                       entries.value().end());
}

Result<ExecOutcome> TargetExecutor::ExecuteOne(const std::vector<uint8_t>& encoded) {
  ExecOutcome outcome;
  DebugPort& port = deployment_->port();
  execs_->Increment();
  flight_.RecordEvent(port.Now(), "exec_begin", execs_->Value());

  if (options_.inject_peripheral_events) {
    // Bench signal generator: a small burst of events rides along with each test case.
    uint64_t burst = session_rng_->Below(4);
    for (uint64_t i = 0; i < burst; ++i) {
      PeripheralEvent event;
      event.kind = static_cast<PeripheralEventKind>(session_rng_->Below(4));
      event.value = static_cast<uint32_t>(session_rng_->Next());
      (void)port.InjectPeripheralEvent(event);
    }
  }
  // Publish the test case; the agent picks it up when it passes executor_main.
  Status write = deployment_->WriteTestCase(encoded);
  if (!write.ok()) {
    // Link or target trouble: run the liveness protocol.
    timeouts_->Increment();
    outcome.status = ExecStatus::kLinkLost;
    DumpFlight("write_failed", &outcome);
    RETURN_IF_ERROR(Restore("write_failed"));
    return outcome;
  }
  flight_.RecordEvent(port.Now(), "publish", encoded.size());

  int stall_strikes = 0;
  int cov_drains = 0;
  bool done = false;
  std::optional<Deployment::DrainPlan> pending_plan;
  std::vector<uint8_t> status_raw;
  // One exec_continue span covers the whole breakpoint-synchronised run of this test
  // case (all continue rounds and mid-run coverage drains); recovery time is not
  // included — it gets its own watchdog_recovery span inside Restore.
  telemetry::Tracer::Span exec_span = telemetry_->tracer().Begin("exec_continue", port.Now());
  for (int round = 0; !done && round < kMaxContinueRounds;) {
    // The agent status block rides in the stop reply (GDB/MI-style stop-event
    // coalescing), so executor_main stops need no follow-up read. A pending
    // double-buffered drain plan rides the same round trip for free.
    auto stop_or = pending_plan.has_value()
                       ? port.ContinueWithPlan(&pending_plan->ops,
                                               deployment_->status_address(),
                                               kStatusBlockSize, &status_raw)
                       : port.ContinueWithRead(deployment_->status_address(),
                                               kStatusBlockSize, &status_raw);
    if (stop_or.ok() && pending_plan.has_value()) {
      // The plan committed before the core was released: collect the parked bank.
      auto drained = deployment_->FinishDrainPlan(&*pending_plan);
      if (drained.ok()) {
        edges_drained_->Add(drained.value().size());
        overlapped_drains_->Increment();
        // vs. the immediate path (separate drain batch + continue): one fixed
        // link-latency charge saved per overlapped drain.
        drain_overlap_saved_us_->Add(kDebugTransactionCost);
        flight_.RecordEvent(port.Now(), "drain", drained.value().size());
        outcome.hits.insert(outcome.hits.end(), drained.value().begin(),
                            drained.value().end());
      }
      pending_plan.reset();
    } else if (pending_plan.has_value()) {
      // Severed link: the plan never applied; the target still fills the same bank
      // and the restore below rewinds everything to bank 0 anyway.
      pending_plan.reset();
    }
    if (!stop_or.ok()) {
      // Watchdog #1: connection timeout.
      timeouts_->Increment();
      if (!options_.watchdogs) {
        deployment_->board().clock().Advance(kManualInterventionCost);
      }
      outcome.status = ExecStatus::kLinkLost;
      telemetry_->tracer().End(exec_span, port.Now());
      DumpFlight("link_lost", &outcome);
      RETURN_IF_ERROR(Restore("link_lost"));
      return outcome;
    }
    const StopInfo& stop = stop_or.value();

    if (options_.exception_monitor && exception_monitor_.IsExceptionStop(stop)) {
      // Crash observed at the OS exception function.
      std::string uart = port.DrainUart();
      BugSignature signature;
      signature.detector = "exception";
      signature.kind = "panic";
      signature.excerpt = uart.empty() ? ("stopped at " + stop.symbol) : uart;
      outcome.status = ExecStatus::kCrashed;
      outcome.signature = signature;
      telemetry_->tracer().End(exec_span, port.Now());
      HarvestCoverage(&outcome);
      DumpFlight("crash", &outcome);
      RETURN_IF_ERROR(Restore("crash"));
      return outcome;
    }

    if (stop.reason == HaltReason::kBreakpoint && stop.symbol == "_kcmp_buf_full") {
      // Coverage ring full mid-program: drain and resume (Figure 4). Drains do not count
      // against the continue-round budget, but cap them against runaway loops.
      //
      // The target sat parked until the host's background status poll noticed the
      // halt: unlike the end-of-case stop (which completes the continue-and-read
      // rendezvous the host is already waiting on), a mid-case instrumentation
      // stall interrupts a host that is off servicing the rest of the farm. With
      // bank flips on, the target absorbs every other overflow itself and this
      // charge — the dominant drain cost — is paid half as often.
      deployment_->board().clock().Advance(kCovStallPollCost);
      if (options_.overlapped_drain) {
        // Double-buffered: queue the drain+bank-flip plan onto the next continue
        // instead of paying a round trip now. The entries surface after the next
        // stop — same entries, one transaction cheaper.
        pending_plan = deployment_->MakeDrainPlan();
      } else {
        HarvestCoverage(&outcome);
      }
      if (++cov_drains > 64) {
        ++round;
      }
      continue;
    }

    if (stop.reason == HaltReason::kBreakpoint && stop.symbol == "executor_main") {
      // Back at the top of the loop. The first pass just means "test case accepted, about
      // to run" (the agent pauses before reading the mailbox); the program has completed
      // once the agent consumed the mailbox, which we see as a second stop here.
      if (Deployment::ParseStatusBlock(status_raw).state == AgentState::kWaiting) {
        ++round;
        continue;  // first stop: resume into the program
      }
      outcome.status = ExecStatus::kCompleted;
      done = true;
      break;
    }

    if (stop.reason == HaltReason::kIdle) {
      outcome.status = ExecStatus::kCompleted;
      done = true;
      break;
    }

    // Quantum expired (or an unexpected stop): consult watchdog #2.
    ++round;
    if (!options_.watchdogs) {
      if (round >= kMaxContinueRounds) {
        // No watchdog: the operator eventually notices the wedged board.
        deployment_->board().clock().Advance(kManualInterventionCost);
        outcome.status = ExecStatus::kStalled;
        stalls_->Increment();
        std::string uart = port.DrainUart();
        auto log_hit = log_monitor_.Scan(uart);
        if (options_.log_monitor && log_hit.has_value()) {
          outcome.status = ExecStatus::kCrashed;
          outcome.signature = log_hit;
        }
        telemetry_->tracer().End(exec_span, port.Now());
        HarvestCoverage(&outcome);
        DumpFlight("stall", &outcome);
        RETURN_IF_ERROR(Restore("stall"));
        return outcome;
      }
      continue;
    }
    LivenessVerdict verdict = watchdog_.Check(port);
    if (verdict == LivenessVerdict::kAlive) {
      continue;  // still making progress; keep running
    }
    if (verdict == LivenessVerdict::kPowerPlateau) {
      // Ammeter plateau: the core spins flat-out; skip the PC re-check round.
      stalls_->Increment();
      outcome.status = ExecStatus::kStalled;
      std::string uart_text = port.DrainUart();
      auto log_hit = log_monitor_.Scan(uart_text);
      if (options_.log_monitor && log_hit.has_value()) {
        outcome.status = ExecStatus::kCrashed;
        outcome.signature = log_hit;
      }
      telemetry_->tracer().End(exec_span, port.Now());
      HarvestCoverage(&outcome);
      DumpFlight("power_plateau", &outcome);
      RETURN_IF_ERROR(Restore("power_plateau"));
      return outcome;
    }
    if (verdict == LivenessVerdict::kPcStall) {
      ++stall_strikes;
      if (stall_strikes < 2) {
        continue;  // one more continue to confirm (Algorithm 1 re-check)
      }
      stalls_->Increment();
      outcome.status = ExecStatus::kStalled;
      // The log monitor reads the wedge's last words — this is how assertion bugs
      // (log + parked core) are detected.
      std::string uart = port.DrainUart();
      auto log_hit = log_monitor_.Scan(uart);
      if (options_.log_monitor && log_hit.has_value()) {
        outcome.status = ExecStatus::kCrashed;
        outcome.signature = log_hit;
      }
      telemetry_->tracer().End(exec_span, port.Now());
      HarvestCoverage(&outcome);
      DumpFlight("pc_stall", &outcome);
      RETURN_IF_ERROR(Restore("pc_stall"));
      return outcome;
    }
    // Connection timeout mid-protocol.
    timeouts_->Increment();
    outcome.status = ExecStatus::kLinkLost;
    telemetry_->tracer().End(exec_span, port.Now());
    DumpFlight("link_lost", &outcome);
    RETURN_IF_ERROR(Restore("link_lost"));
    return outcome;
  }

  telemetry_->tracer().End(exec_span, port.Now());

  // Completed path: scan the log for crash text that did not wedge the core, then
  // harvest coverage.
  std::string uart = port.DrainUart();
  if (options_.log_monitor) {
    auto log_hit = log_monitor_.Scan(uart);
    if (log_hit.has_value()) {
      outcome.status = ExecStatus::kCrashed;
      outcome.signature = log_hit;
      HarvestCoverage(&outcome);
      DumpFlight("crash", &outcome);
      RETURN_IF_ERROR(Restore("crash"));
      return outcome;
    }
  }
  // The post-execution status read shares the drain's round trip.
  AgentStatusView status_view;
  bool status_read = false;
  HarvestCoverage(&outcome, &status_view, &status_read);
  if (status_read && status_view.last_error != AgentError::kNone) {
    rejected_->Increment();
    flight_.RecordEvent(port.Now(), "rejected", rejected_->Value());
  }
  ++execs_since_reset_;
  if (execs_since_reset_ >= options_.periodic_reset_execs) {
    execs_since_reset_ = 0;
    watchdog_.Reset();
    if (options_.restore_mode == RestoreMode::kSnapshot && snapshot_ != nullptr) {
      // Routine state shedding via the snapshot: the same fresh kernel state the
      // reboot below produces, at kWarmRestoreCost instead of kRebootCost. Like
      // the plain reboot, this is not counted as a liveness restore.
      Status warm = snapshot_->Restore(port);
      if (!warm.ok()) {
        DumpFlight("periodic_reset_failed", /*outcome=*/nullptr);
        RETURN_IF_ERROR(Restore("periodic_reset_failed"));
      } else {
        snapshot_restores_->Increment();
        snapshot_bytes_->Add(snapshot_->ram_bytes());
        last_restore_ = "snapshot";
        flight_.RecordEvent(port.Now(), "periodic_restore", snapshot_restores_->Value());
      }
    } else {
      // Routine state shedding: a plain reboot is enough (nothing is damaged), so
      // the campaign does not pay the reflash cost here.
      RETURN_IF_ERROR(port.ResetTarget());
      if (deployment_->board().power_state() != PowerState::kRunning) {
        DumpFlight("periodic_reset_failed", /*outcome=*/nullptr);
        RETURN_IF_ERROR(Restore("periodic_reset_failed"));
      } else {
        last_restore_ = "cold";
        flight_.Clear();  // a cold boot wipes the board-session context
        RETURN_IF_ERROR(ArmBreakpoints());
      }
    }
  }
  return outcome;
}

}  // namespace eof
