#include "src/core/replay.h"

#include "src/common/coverage_map.h"
#include "src/core/bug_catalog.h"
#include "src/core/monitors.h"
#include "src/fuzz/program_text.h"
#include "src/fuzz/trimmer.h"
#include "src/kernel/os.h"
#include "src/spec/spec_miner.h"

namespace eof {

Result<ReplayOutcome> ReplayReproducer(const std::string& os_name,
                                       const std::string& program_text,
                                       const std::string& board_name,
                                       std::shared_ptr<const FirmwareImage> image) {
  DeployOptions deploy;
  deploy.os_name = os_name;
  deploy.board_name = board_name;
  deploy.image = std::move(image);
  ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment, Deployment::Create(deploy));

  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(os_name));
  std::unique_ptr<Os> scratch = info.factory();
  ASSIGN_OR_RETURN(spec::MinedSpecs mined, spec::MineValidatedSpecs(scratch->registry()));
  ASSIGN_OR_RETURN(fuzz::Program program,
                   fuzz::ParseProgramText(mined.specs, program_text));

  ExceptionMonitor exception_monitor;
  LogMonitor log_monitor;
  RETURN_IF_ERROR(exception_monitor.Arm(*deployment, scratch->exception_symbol()));
  ASSIGN_OR_RETURN(uint64_t executor_main, deployment->SymbolAddress("executor_main"));
  RETURN_IF_ERROR(deployment->port().SetBreakpoint(executor_main));
  ASSIGN_OR_RETURN(StopInfo parked, deployment->port().Continue());
  (void)parked;
  (void)deployment->port().DrainUart();  // boot banner is not part of the verdict

  RETURN_IF_ERROR(deployment->WriteTestCase(EncodeProgram(program.ToWire(mined.specs))));

  ReplayOutcome outcome;
  for (int round = 0; round < 8; ++round) {
    auto stop = deployment->port().Continue();
    if (!stop.ok()) {
      // Link-dead target: the reproducer bricked it (flash damage class).
      outcome.crashed = true;
      outcome.detector = "timeout";
      break;
    }
    outcome.uart += deployment->port().DrainUart();
    if (exception_monitor.IsExceptionStop(stop.value())) {
      outcome.crashed = true;
      outcome.detector = "exception";
      break;
    }
    auto log_hit = log_monitor.Scan(outcome.uart);
    if (log_hit.has_value()) {
      outcome.crashed = true;
      outcome.detector = "log";
      break;
    }
    if (stop.value().reason == HaltReason::kBreakpoint &&
        stop.value().symbol == "executor_main") {
      auto status = deployment->ReadAgentStatus();
      if (status.ok() && status.value().state == AgentState::kWaiting) {
        continue;  // pre-read pause
      }
      break;  // completed without incident
    }
    if (stop.value().reason == HaltReason::kIdle) {
      break;
    }
    // Quantum expired twice in a row with a frozen PC = wedge.
    auto pc1 = deployment->port().ReadPC();
    auto again = deployment->port().Continue();
    auto pc2 = deployment->port().ReadPC();
    outcome.uart += deployment->port().DrainUart();
    if (pc1.ok() && again.ok() && pc2.ok() && pc1.value() != pc2.value()) {
      continue;
    }
    outcome.crashed = true;
    auto log_hit2 = log_monitor.Scan(outcome.uart);
    outcome.detector = log_hit2.has_value() ? "log" : "timeout";
    break;
  }
  if (outcome.crashed) {
    outcome.crash_text = outcome.uart;
    outcome.catalog_id = AttributeBug(os_name, outcome.crash_text);
  }
  return outcome;
}

namespace {

// Runs `program` once on a fresh deployment, draining the coverage ring at every
// stop. The ring-full pause point is armed so mid-program overflows pause the
// agent for a drain instead of dropping entries — attribution stays complete.
Result<std::vector<CovHit>> RunOnceCollect(const std::string& os_name,
                                           const std::string& board_name,
                                           const spec::CompiledSpecs& specs,
                                           const fuzz::Program& program) {
  DeployOptions deploy;
  deploy.os_name = os_name;
  deploy.board_name = board_name;
  ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment, Deployment::Create(deploy));
  ASSIGN_OR_RETURN(uint64_t executor_main, deployment->SymbolAddress("executor_main"));
  ASSIGN_OR_RETURN(uint64_t cov_full, deployment->SymbolAddress("_kcmp_buf_full"));
  RETURN_IF_ERROR(deployment->port().SetBreakpoint(executor_main));
  RETURN_IF_ERROR(deployment->port().SetBreakpoint(cov_full));
  ASSIGN_OR_RETURN(StopInfo parked, deployment->port().Continue());
  (void)parked;
  fuzz::Program copy = program;
  RETURN_IF_ERROR(deployment->WriteTestCase(EncodeProgram(copy.ToWire(specs))));
  std::vector<CovHit> hits;
  for (int round = 0; round < 64; ++round) {
    auto stop = deployment->port().Continue();
    if (!stop.ok()) {
      return stop.status();
    }
    auto drained = deployment->DrainCoverage();
    if (drained.ok()) {
      hits.insert(hits.end(), drained.value().begin(), drained.value().end());
    }
    if (stop.value().reason == HaltReason::kBreakpoint &&
        stop.value().symbol == "executor_main") {
      auto status = deployment->ReadAgentStatus();
      if (status.ok() && status.value().state == AgentState::kWaiting) {
        continue;  // pre-read pause
      }
      break;
    }
    if (stop.value().reason == HaltReason::kIdle) {
      break;
    }
  }
  return hits;
}

}  // namespace

Result<TrimOutcome> TrimReproducer(const std::string& os_name,
                                   const std::string& program_text,
                                   const std::string& board_name) {
  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(os_name));
  std::unique_ptr<Os> scratch = info.factory();
  ASSIGN_OR_RETURN(spec::MinedSpecs mined, spec::MineValidatedSpecs(scratch->registry()));
  ASSIGN_OR_RETURN(fuzz::Program program,
                   fuzz::ParseProgramText(mined.specs, program_text));

  ASSIGN_OR_RETURN(std::vector<CovHit> hits,
                   RunOnceCollect(os_name, board_name, mined.specs, program));
  CoverageMap original_map;
  std::vector<CovHit> fresh;
  original_map.AddBatchAttributed(hits, &fresh);
  std::vector<uint32_t> owner_calls;
  owner_calls.reserve(fresh.size());
  for (const CovHit& hit : fresh) {
    owner_calls.push_back(hit.call);
  }
  fuzz::TrimStats stats;
  fuzz::Program trimmed = fuzz::TrimToCalls(program, owner_calls, &stats);

  TrimOutcome outcome;
  outcome.original_calls = program.calls.size();
  outcome.kept_calls = stats.kept_calls;
  outcome.removed_calls = stats.removed_calls;
  outcome.original_coverage = original_map.Count();
  outcome.trimmed_text = fuzz::SerializeProgramText(mined.specs, trimmed);

  // Verification replay on a second cold board: the trim is only accepted as
  // edge-preserving if every edge of the original run shows up again.
  ASSIGN_OR_RETURN(std::vector<CovHit> verify_hits,
                   RunOnceCollect(os_name, board_name, mined.specs, trimmed));
  CoverageMap verify_map;
  verify_map.AddBatchAttributed(verify_hits, nullptr);
  outcome.trimmed_coverage = verify_map.Count();
  outcome.coverage_preserved = true;
  for (const CovHit& hit : fresh) {
    if (!verify_map.Contains(hit.edge)) {
      outcome.coverage_preserved = false;
      break;
    }
  }
  return outcome;
}

}  // namespace eof
