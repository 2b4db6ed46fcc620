#include "src/core/fuzzer.h"

#include <mutex>

#include "src/common/logging.h"
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
  options.os_name = config.os_name;
  options.board_name = config.board_name;
  options.instrumentation = config.instrumentation;
  options.seed = seed;
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

CampaignScheduler::Options MakeSchedulerOptions(const FuzzerConfig& config, int workers) {
  CampaignScheduler::Options options;
  options.os_name = config.os_name;
  options.coverage_feedback = config.coverage_feedback;
  options.directed = config.directed;
  options.trim = config.trim;
  options.budget = config.budget;
  options.sample_points = config.sample_points;
  options.workers = workers;
  options.seed = config.seed;
  options.export_corpus = config.export_corpus;
  if (config.restore_mode == RestoreMode::kSnapshot) {
    options.validator = MakeColdBootValidator(config);
  }
  return options;
}

std::function<bool(const BugReport&)> MakeColdBootValidator(const FuzzerConfig& config) {
  // Capture by value: the validator outlives the config reference and runs late in
  // the campaign, replaying each first sighting on a board deployed from scratch.
  // Every replay flashes the same immutable image, built on first use and owned by
  // this validator alone, so it lives exactly as long as the campaign does.
  struct SharedImage {
    std::once_flag built;
    std::shared_ptr<const FirmwareImage> image;  // nullptr: the build failed
  };
  auto shared = std::make_shared<SharedImage>();
  std::string os_name = config.os_name;
  std::string board_name = config.board_name;
  return [os_name, board_name, shared](const BugReport& bug) {
    std::call_once(shared->built, [&] {
      DeployOptions deploy;
      deploy.os_name = os_name;
      deploy.board_name = board_name;
      Result<std::shared_ptr<const FirmwareImage>> image = Deployment::BuildImageFor(deploy);
      if (image.ok()) {
        shared->image = std::move(image).value();
      }
    });
    // Without an image the replay builds its own, and fails the way the build did.
    Result<ReplayOutcome> replay =
        ReplayReproducer(os_name, bug.program_text, board_name, shared->image);
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

Result<CampaignResult> EofFuzzer::Run() {
  ASSIGN_OR_RETURN(CampaignPlan plan, PrepareCampaign(config_));
  ASSIGN_OR_RETURN(std::unique_ptr<telemetry::CampaignTelemetry> telemetry,
                   telemetry::CampaignTelemetry::Create(
                       MakeTelemetryOptions(config_, /*workers=*/1)));

  fuzz::GeneratorOptions gen = config_.gen;
  gen.use_extended = config_.use_extended_specs;
  fuzz::Generator generator(plan.specs, gen, config_.seed);
  Rng schedule_rng(config_.seed ^ 0x5eedf00dULL);

  // The executor shares the scheduling RNG as its session stream, preserving the
  // historical single-threaded stream (peripheral-event bursts and scheduling rolls
  // interleave on one sequence, as the monolithic engine did).
  ExecutorOptions executor_options =
      MakeExecutorOptions(config_, config_.seed, plan.exception_symbol);
  executor_options.telemetry = telemetry->board(0);
  ASSIGN_OR_RETURN(std::unique_ptr<TargetExecutor> executor,
                   TargetExecutor::Create(executor_options, &schedule_rng));

  CampaignScheduler::Options scheduler_options =
      MakeSchedulerOptions(config_, /*workers=*/1);
  scheduler_options.registry = &telemetry->campaign_registry();
  scheduler_options.sink = telemetry->sink();
  CampaignScheduler scheduler(plan.specs, scheduler_options);
  scheduler.SeedCorpus(config_.seed_programs);

  telemetry->CampaignStart(config_.os_name, config_.board_name);
  telemetry->StartEmitter([&scheduler] { return scheduler.View(); });

  uint64_t execs_run = 0;
  while (executor->Elapsed() < config_.budget &&
         (config_.max_execs == 0 || execs_run < config_.max_execs)) {
    fuzz::Program program = scheduler.NextProgram(generator, schedule_rng);
    std::vector<uint8_t> encoded;
    if (!EncodeForMailbox(plan.specs, &program, &encoded)) {
      continue;
    }
    ASSIGN_OR_RETURN(ExecOutcome outcome, executor->ExecuteOne(encoded));
    ++execs_run;
    scheduler.OnOutcome(program, outcome, generator, executor->Elapsed(), /*worker=*/0);
    if (telemetry->emitter() != nullptr) {
      executor->SetCoverageGauge(scheduler.CoverageCount());
      telemetry->emitter()->MaybeEmit(/*worker=*/0, executor->Elapsed());
    }
  }
  VirtualTime elapsed = executor->Elapsed();
  executor->SetCoverageGauge(scheduler.CoverageCount());
  if (telemetry->emitter() != nullptr) {
    telemetry->emitter()->WorkerDone(0, elapsed);
  }
  CampaignResult result =
      scheduler.Finalize(executor->stats(), elapsed, executor->port_stats());
  telemetry->CampaignEnd(elapsed);
  result.journal_dropped = telemetry->journal_dropped();
  if (result.journal_dropped > 0) {
    EOF_LOG(kWarning) << "journal sink dropped " << result.journal_dropped
                      << " rows; " << config_.metrics_out
                      << " is incomplete (eof report numbers are lower bounds)";
  }
  return result;
}

}  // namespace eof
