#include "src/core/fuzzer.h"

#include <mutex>

#include "src/core/board_farm.h"
#include "src/core/replay.h"
#include "src/kernel/os.h"

namespace eof {

Result<CampaignPlan> PrepareCampaign(const FuzzerConfig& config) {
  CampaignPlan plan;
  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(config.os_name));
  std::unique_ptr<Os> scratch_os = info.factory();
  plan.exception_symbol = scratch_os->exception_symbol();
  spec::MinerOptions miner;
  miner.include_extended = config.use_extended_specs;
  miner.seed = config.seed;
  ASSIGN_OR_RETURN(spec::MinedSpecs mined,
                   spec::MineValidatedSpecs(scratch_os->registry(), miner));
  plan.specs = std::move(mined.specs);
  return plan;
}

ExecutorOptions MakeExecutorOptions(const FuzzerConfig& config, uint64_t seed,
                                    const std::string& exception_symbol) {
  ExecutorOptions options;
  options.deploy.os_name = config.os_name;
  options.deploy.board_name = config.board_name;
  options.deploy.instrumentation = config.instrumentation;
  options.deploy.seed = seed;
  options.restore_mode = config.restore_mode;
  options.coverage_feedback = config.coverage_feedback;
  options.log_monitor = config.log_monitor;
  options.exception_monitor = config.exception_monitor;
  options.watchdogs = config.watchdogs;
  options.power_probe = config.power_probe;
  options.inject_peripheral_events = config.inject_peripheral_events;
  options.overlapped_drain = config.overlapped_drain;
  options.periodic_reset_execs = config.periodic_reset_execs;
  options.exception_symbol = exception_symbol;
  return options;
}

namespace {

// The cold-boot provenance oracle for snapshot-mode campaigns: replays a first sighting's
// reproducer on a freshly flashed board and confirms the bug only if the cold board
// crashes too, as the same catalog bug when the sighting was attributed. It shares the
// campaign's `plan` and builds its one image on first use.
std::function<bool(const BugReport&)> MakeColdBootValidator(
    const FuzzerConfig& config, std::shared_ptr<const CampaignPlan> plan) {
  auto once = std::make_shared<std::once_flag>();
  auto deploy = std::make_shared<DeployOptions>(ColdBootDeployOptions(config));
  return [plan = std::move(plan), once, deploy](const BugReport& bug) {
    std::call_once(*once, [&] {
      auto image = Deployment::BuildImageFor(*deploy);
      if (image.ok()) {
        deploy->image = std::move(image).value();
      }
    });
    if (plan == nullptr || deploy->image == nullptr) {  // mining or the build failed
      return false;
    }
    Result<ReplayOutcome> replay = ReplayReproducer(*deploy, *plan, bug.program_text);
    if (!replay.ok()) {
      // A reproducer that cannot even be replayed (parse failure, deploy failure)
      // is no evidence of a cold-boot bug.
      return false;
    }
    if (!replay->crashed) {
      return false;
    }
    // Attributed sightings must reproduce as the same catalog bug; unattributed
    // ones only need the cold board to crash at all.
    return bug.catalog_id == 0 || replay->catalog_id == bug.catalog_id;
  };
}

}  // namespace

CampaignScheduler::Options MakeSchedulerOptions(const FuzzerConfig& config, int workers,
                                                std::shared_ptr<const CampaignPlan> plan) {
  CampaignScheduler::Options options;
  options.os_name = config.os_name;
  options.coverage_feedback = config.coverage_feedback;
  options.trim = config.trim;
  options.budget = config.budget;
  options.sample_points = config.sample_points;
  options.workers = workers;
  options.seed = config.seed;
  options.export_corpus = config.export_corpus;
  if (config.restore_mode == RestoreMode::kSnapshot) {
    if (plan == nullptr) {  // the caller shares no plan: mine the campaign's own
      Result<CampaignPlan> mined = PrepareCampaign(config);
      plan = mined.ok() ? std::make_shared<const CampaignPlan>(std::move(mined).value()) : nullptr;
    }
    options.validator = MakeColdBootValidator(config, std::move(plan));
  }
  return options;
}

DeployOptions ColdBootDeployOptions(const FuzzerConfig& config) {
  DeployOptions deploy;
  deploy.os_name = config.os_name;
  deploy.board_name = config.board_name;
  deploy.instrumentation = config.instrumentation;
  // The build seed stays 1 rather than the campaign's: freertos esp_partition_read
  // returns payload bytes to the program, so replaying on the campaign's own image
  // would change verdicts.
  deploy.seed = 1;
  return deploy;
}

telemetry::CampaignTelemetry::Options MakeTelemetryOptions(const FuzzerConfig& config,
                                                           int workers) {
  telemetry::CampaignTelemetry::Options options;
  options.metrics_out = config.metrics_out;
  options.snapshot_interval = config.metrics_interval;
  options.budget = config.budget;
  options.seed = config.seed;
  options.workers = workers;
  return options;
}

Result<CampaignResult> EofFuzzer::Run() { return BoardFarm(config_, 1).Run(); }

}  // namespace eof
