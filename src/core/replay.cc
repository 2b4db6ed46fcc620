#include "src/core/replay.h"

#include "src/common/coverage_map.h"
#include "src/core/bug_catalog.h"
#include "src/fuzz/program_text.h"
#include "src/fuzz/trimmer.h"

namespace eof {
namespace {

// Runs `program` once on a fresh board deployed from `deploy`: a one-shot
// TargetExecutor with every monitor and watchdog on and reflash restores.
Result<ExecOutcome> ExecuteOnce(const DeployOptions& deploy, const CampaignPlan& plan,
                                const fuzz::Program& program) {
  ExecutorOptions options;
  options.deploy = deploy;
  options.restore_mode = RestoreMode::kReflash;
  options.exception_symbol = plan.exception_symbol;
  Rng session_rng(deploy.seed);  // drives peripheral events only, which stay off
  ASSIGN_OR_RETURN(std::unique_ptr<TargetExecutor> executor,
                   TargetExecutor::Create(options, &session_rng));
  std::vector<uint8_t> encoded;
  program.Encode(plan.specs, &encoded);
  return executor->ExecuteOne(encoded);
}

// A default campaign's plan for `os_name` on `board_name`, and in `deploy` its board 0:
// every replay of the campaign deploys the plan's one image.
Result<CampaignPlan> PrepareDefaultCampaign(const std::string& os_name,
                                            const std::string& board_name,
                                            DeployOptions* deploy) {
  FuzzerConfig config;
  config.os_name = os_name;
  config.board_name = board_name;
  ASSIGN_OR_RETURN(CampaignPlan plan, PrepareCampaign(config));
  *deploy = ColdBootDeployOptions(config, plan, config.seed);
  return plan;
}

}  // namespace

Result<ReplayOutcome> ReplayReproducer(const DeployOptions& deploy, const CampaignPlan& plan,
                                       const std::string& program_text) {
  ASSIGN_OR_RETURN(fuzz::Program program, fuzz::ParseProgramText(plan.specs, program_text));
  ASSIGN_OR_RETURN(ExecOutcome exec, ExecuteOnce(deploy, plan, program));
  ReplayOutcome outcome;
  if (exec.status == ExecStatus::kCompleted) {
    return outcome;
  }
  outcome.crashed = true;
  if (exec.signature.has_value()) {
    outcome.detector = exec.signature->detector;
    outcome.catalog_id = AttributeBug(deploy.os_name, exec.signature->excerpt);
    outcome.crash_text = exec.signature->excerpt + "\n";
  } else {
    // Stalled without last words, or the link died (the reproducer bricked it).
    outcome.detector = "timeout";
  }
  if (exec.dump.has_value()) {
    outcome.crash_text += "-- uart tail --\n" + exec.dump->UartTailText();
  }
  return outcome;
}

Result<ReplayOutcome> ReplayReproducer(const std::string& os_name,
                                       const std::string& program_text,
                                       const std::string& board_name) {
  DeployOptions deploy;
  ASSIGN_OR_RETURN(CampaignPlan plan, PrepareDefaultCampaign(os_name, board_name, &deploy));
  return ReplayReproducer(deploy, plan, program_text);
}

Result<TrimOutcome> TrimReproducer(const std::string& os_name,
                                   const std::string& program_text,
                                   const std::string& board_name) {
  DeployOptions deploy;
  ASSIGN_OR_RETURN(CampaignPlan plan, PrepareDefaultCampaign(os_name, board_name, &deploy));
  ASSIGN_OR_RETURN(fuzz::Program program, fuzz::ParseProgramText(plan.specs, program_text));

  ASSIGN_OR_RETURN(ExecOutcome original, ExecuteOnce(deploy, plan, program));
  CoverageMap original_map;
  std::vector<CovHit> fresh;
  original_map.AddBatchAttributed(original.hits, &fresh);
  fuzz::TrimStats stats;
  fuzz::Program trimmed = fuzz::TrimToFreshHits(program, fresh, &stats);

  TrimOutcome outcome;
  outcome.original_calls = program.calls.size();
  outcome.kept_calls = stats.kept_calls;
  outcome.removed_calls = stats.removed_calls;
  outcome.original_coverage = original_map.Count();
  outcome.trimmed_text = fuzz::SerializeProgramText(plan.specs, trimmed);

  // Verification replay on a second cold board: the trim is only accepted as
  // edge-preserving if every edge of the original run shows up again.
  ASSIGN_OR_RETURN(ExecOutcome verify, ExecuteOnce(deploy, plan, trimmed));
  CoverageMap verify_map;
  verify_map.AddBatchAttributed(verify.hits, nullptr);
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
