// TargetExecutor: one fuzzing session against one attached board. It owns the
// Deployment, arms the breakpoints, drives the Figure-4 breakpoint-synchronised
// execution of a single test case, drains the coverage ring, and keeps the target
// alive with the Algorithm-1 watchdogs and restoration protocol.
//
// The executor is deliberately policy-free: it neither schedules inputs nor decides
// what counts as interesting. That is the CampaignScheduler's job (scheduler.h).
// EofFuzzer wires one executor to one scheduler; BoardFarm wires N executors (one
// per worker thread) to a shared scheduler. An executor instance is confined to a
// single thread — cross-worker coordination happens in the scheduler.

#ifndef SRC_CORE_EXECUTOR_H_
#define SRC_CORE_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/rng.h"
#include "src/common/vclock.h"
#include "src/core/deployment.h"
#include "src/core/liveness.h"
#include "src/core/monitors.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace eof {

// How a downed target gets recovered.
enum class RestoreMode {
  kReflash,     // EOF: full image reflash + reboot (works after flash damage)
  kRebootOnly,  // plain reset; a damaged image stays damaged (repeated timeouts)
  kSnapshot,    // warm restore from the post-boot board snapshot; falls back to
                // the full reflash when the fast path fails mid-restore
};

enum class ExecStatus { kCompleted, kCrashed, kStalled, kLinkLost };

// What one test-case execution produced. Hits are raw drain order (duplicate edges
// possible across the in-flight ring drains), each carrying the index of the call
// that was executing when the edge fired; the scheduler folds them into the global
// coverage map and decides how many were new. `dump` is the board's
// flight-recorder state at the moment a monitor fired or a watchdog tripped —
// the forensic context the scheduler attaches to a first-seen bug's report.
struct ExecOutcome {
  ExecStatus status = ExecStatus::kCompleted;
  std::optional<BugSignature> signature;
  std::vector<CovHit> hits;
  std::optional<telemetry::FlightDump> dump;
};

// Per-session liveness/health counters — a point-in-time view over the session's
// `exec.*` telemetry counters. The registry is the source of truth; campaign runners
// aggregate workers by merging registry snapshots, not by summing these structs.
struct ExecStats {
  uint64_t rejected = 0;
  uint64_t stalls = 0;
  uint64_t timeouts = 0;
  uint64_t restores = 0;
  uint64_t snapshot_restores = 0;  // restores served by the warm snapshot path
  uint64_t snapshot_bytes = 0;     // RAM bytes those restores pushed over the link
};

// Reads the `exec.*` counters out of a registry snapshot (per-board or farm-merged).
ExecStats ExecStatsFromSnapshot(const telemetry::MetricsSnapshot& snapshot);

// Board-session configuration: the slice of FuzzerConfig the executor needs, plus
// the OS exception symbol resolved by campaign setup.
struct ExecutorOptions {
  std::string os_name;
  std::string board_name;
  InstrumentationOptions instrumentation;
  uint64_t seed = 1;

  RestoreMode restore_mode = RestoreMode::kReflash;
  bool coverage_feedback = true;
  bool log_monitor = true;
  bool exception_monitor = true;
  bool watchdogs = true;
  bool power_probe = false;
  bool inject_peripheral_events = false;
  // Double-buffered mid-program drains: when the ring fills, flip the target onto
  // the other bank and ride the drain plan on the next exec-continue round trip
  // instead of paying a separate drain transaction.
  // Drained entries are bit-identical either way; only virtual time differs.
  bool overlapped_drain = true;
  uint32_t periodic_reset_execs = 24;

  std::string exception_symbol;

  // The board session's telemetry (registry + tracer + journal). nullptr = the
  // executor owns a private, journal-less BoardTelemetry, so instrumentation is
  // always live (the counters are relaxed atomics and never touch the virtual
  // clock or any RNG — fuzzing results are identical with or without a consumer).
  // Must outlive the executor when set.
  telemetry::BoardTelemetry* telemetry = nullptr;
};

class TargetExecutor {
 public:
  // Deploys (build image, attach port, flash, boot to the agent), resolves the
  // workflow symbols, and arms breakpoints. `session_rng` drives the peripheral
  // event bursts and must outlive the executor (the single-threaded engine shares
  // the scheduling RNG here to preserve its historical stream; farm workers pass
  // their own per-worker stream).
  static Result<std::unique_ptr<TargetExecutor>> Create(const ExecutorOptions& options,
                                                        Rng* session_rng);

  // Publishes one encoded test case and runs it to completion / crash / stall /
  // link loss, restoring the target as needed (Algorithm 1).
  Result<ExecOutcome> ExecuteOne(const std::vector<uint8_t>& encoded);

  // Virtual board time spent in this session so far.
  VirtualTime Elapsed() { return deployment_->port().Now() - start_time_; }

  // Current values of the session's `exec.*` counters, materialized on demand.
  ExecStats stats() const;
  // Debug-link traffic counters for this session's board (round trips, batches,
  // flash bytes programmed vs. skipped).
  DebugPortStats port_stats() { return deployment_->port().stats(); }
  Deployment& deployment() { return *deployment_; }

  // The session's telemetry: every instrument this executor, its deployment, and its
  // debug port registered lives in telemetry()->registry().
  telemetry::BoardTelemetry* telemetry() { return telemetry_; }

  // The session's flight recorder (always on; the debug port and the exec loop feed
  // it). Exposed for tests probing ring contents after a campaign.
  const telemetry::FlightRecorder& flight_recorder() const { return flight_; }

  // The once-per-deployment board snapshot (kSnapshot mode only, else nullptr).
  // Exposed for tests that poison the captured state.
  BoardSnapshot* snapshot_for_test() { return snapshot_.get(); }

  // Restore mode that produced the board's current state ("none" until the first
  // restore, then "cold" or "snapshot"). Crash dumps carry this label.
  const char* last_restore() const { return last_restore_; }

  // Publishes the session's current coverage-map population into the
  // `exec.local_coverage` gauge (the campaign runner owns the map, so it reports).
  void SetCoverageGauge(uint64_t edges) { local_coverage_->Set(edges); }

 private:
  TargetExecutor(ExecutorOptions options, Rng* session_rng)
      : options_(std::move(options)), session_rng_(session_rng) {}

  Status Setup();
  Status ArmBreakpoints();
  // `reason` labels the journal's liveness_reset event ("link_lost", "stall", ...).
  Status Restore(const char* reason);
  // Snapshots the flight recorder, journals it as a "crash_dump" row (when a sink is
  // attached), and — with `outcome` non-null — attaches the dump to the outcome so
  // the scheduler can fold it into bug provenance.
  void DumpFlight(const char* reason, ExecOutcome* outcome);
  // Drains the coverage ring into `outcome`. When `status_out` is non-null the agent
  // status block is fetched too — in the drain's own round trip — and `*status_ok`
  // reports whether it arrived.
  void HarvestCoverage(ExecOutcome* outcome, AgentStatusView* status_out = nullptr,
                       bool* status_ok = nullptr);

  ExecutorOptions options_;
  Rng* session_rng_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<BoardSnapshot> snapshot_;  // kSnapshot mode: captured at deploy
  const char* last_restore_ = "none";        // "none" | "cold" | "snapshot"
  LogMonitor log_monitor_;
  ExceptionMonitor exception_monitor_;
  LivenessWatchdog watchdog_;
  telemetry::FlightRecorder flight_;

  std::unique_ptr<telemetry::BoardTelemetry> owned_telemetry_;  // set iff none was passed
  telemetry::BoardTelemetry* telemetry_ = nullptr;
  telemetry::Counter* execs_ = nullptr;
  telemetry::Counter* rejected_ = nullptr;
  telemetry::Counter* stalls_ = nullptr;
  telemetry::Counter* timeouts_ = nullptr;
  telemetry::Counter* restores_ = nullptr;
  telemetry::Counter* snapshot_restores_ = nullptr;
  telemetry::Counter* snapshot_bytes_ = nullptr;
  telemetry::Counter* edges_drained_ = nullptr;
  telemetry::Counter* overlapped_drains_ = nullptr;
  telemetry::Counter* drain_overlap_saved_us_ = nullptr;
  telemetry::Gauge* local_coverage_ = nullptr;

  uint64_t executor_main_addr_ = 0;
  uint64_t cov_full_addr_ = 0;
  uint64_t exception_addr_ = 0;
  // Self-service bank flips for this session (overlapped drain + coverage feedback).
  // Re-granted to the target at every arm; see Deployment::SetBankFlipMode.
  bool bank_flip_ = false;
  VirtualTime start_time_ = 0;
  uint64_t execs_since_reset_ = 0;
};

}  // namespace eof

#endif  // SRC_CORE_EXECUTOR_H_
