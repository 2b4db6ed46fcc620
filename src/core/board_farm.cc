#include "src/core/board_farm.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/coverage_map.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace eof {

uint64_t FarmWorkerSeed(uint64_t base_seed, int worker) {
  if (worker == 0) {
    return base_seed;
  }
  return DeriveSeedStream(base_seed, static_cast<uint64_t>(worker));
}

BoardFarm::BoardFarm(FuzzerConfig config, int jobs)
    : config_(std::move(config)), jobs_(std::max(jobs, 1)) {}

Result<FarmSession> MakeFarmSession(const FuzzerConfig& config,
                                    const CampaignPlan& plan, uint64_t seed,
                                    telemetry::BoardTelemetry* board) {
  FarmSession session;
  fuzz::GeneratorOptions gen = config.gen;
  gen.use_extended = config.use_extended_specs;
  session.generator = std::make_unique<fuzz::Generator>(plan.specs, gen, seed);
  session.rng = std::make_unique<Rng>(seed ^ 0x5eedf00dULL);
  ExecutorOptions executor_options = MakeExecutorOptions(config, plan, seed);
  executor_options.deploy.telemetry = board;
  ASSIGN_OR_RETURN(session.executor,
                   TargetExecutor::Create(executor_options, session.rng.get()));
  return session;
}

void RunFarmSession(FarmSession* session, int index, CampaignScheduler* scheduler,
                    const spec::CompiledSpecs* specs, VirtualDuration budget,
                    uint64_t max_execs, std::atomic<bool>* stop,
                    telemetry::SnapshotEmitter* emitter,
                    const std::atomic<bool>* cancel, FarmProgress* progress) {
  uint64_t execs_run = 0;
  // The loop's buffers, reused every exec: the program (seeds are copied into it),
  // its mailbox encoding, the outcome, and the locally fresh hits.
  fuzz::Program program;
  std::vector<uint8_t> encoded;
  ExecOutcome outcome;
  std::vector<CovHit> fresh_here;
  while (session->executor->Elapsed() < budget &&
         (max_execs == 0 || execs_run < max_execs) &&
         !stop->load(std::memory_order_relaxed) &&
         (cancel == nullptr || !cancel->load(std::memory_order_relaxed))) {
    scheduler->NextProgram(*session->generator, *session->rng, &program);
    if (!EncodeForMailbox(*specs, &program, &encoded)) {
      continue;
    }
    Status executed = session->executor->ExecuteOne(encoded, &outcome);
    if (!executed.ok()) {
      session->status = executed;
      stop->store(true, std::memory_order_relaxed);
      break;
    }
    ++execs_run;
    fresh_here.clear();
    session->local_coverage.AddBatchAttributed(outcome.hits, &fresh_here);
    outcome.hits.swap(fresh_here);
    scheduler->OnOutcome(program, outcome, *session->generator,
                         session->executor->Elapsed(), index);
    if (progress != nullptr) {
      progress->elapsed_us.store(session->executor->Elapsed(),
                                 std::memory_order_relaxed);
      progress->execs.store(execs_run, std::memory_order_relaxed);
    }
    if (emitter != nullptr) {
      session->executor->SetCoverageGauge(session->local_coverage.Count());
      emitter->MaybeEmit(index, session->executor->Elapsed());
    }
  }
  session->executor->SetCoverageGauge(session->local_coverage.Count());
  scheduler->OnWorkerDone(index);
  if (emitter != nullptr) {
    emitter->WorkerDone(index, session->executor->Elapsed());
  }
  if (progress != nullptr) {
    progress->elapsed_us.store(session->executor->Elapsed(),
                               std::memory_order_relaxed);
    progress->execs.store(execs_run, std::memory_order_relaxed);
    progress->done.store(true, std::memory_order_release);
  }
}

Result<CampaignResult> BoardFarm::Run() {
  ASSIGN_OR_RETURN(CampaignPlan prepared, PrepareCampaign(config_));
  auto plan = std::make_shared<const CampaignPlan>(std::move(prepared));
  ASSIGN_OR_RETURN(
      std::unique_ptr<telemetry::CampaignTelemetry> telemetry,
      telemetry::CampaignTelemetry::Create(MakeTelemetryOptions(config_, jobs_)));

  CampaignScheduler::Options scheduler_options = MakeSchedulerOptions(config_, jobs_, plan);
  scheduler_options.registry = &telemetry->campaign_registry();
  scheduler_options.sink = telemetry->sink();
  CampaignScheduler scheduler(plan->specs, scheduler_options);
  scheduler.SeedCorpus(config_.seed_programs);

  // Bring the farm up concurrently, with the same thread layout as the fuzzing
  // below: each board builds its image and boots from its own per-worker seed into
  // its own telemetry, so the deploys share nothing. All are joined before the
  // campaign starts; the lowest-index deploy error wins.
  std::vector<FarmSession> workers(static_cast<size_t>(jobs_));
  std::vector<Status> deployed(static_cast<size_t>(jobs_));
  auto deploy_board = [&](int i) {
    Result<FarmSession> session = MakeFarmSession(
        config_, *plan, FarmWorkerSeed(config_.seed, i), telemetry->board(i));
    if (session.ok()) {
      workers[static_cast<size_t>(i)] = std::move(session).value();
    } else {
      deployed[static_cast<size_t>(i)] = session.status();
    }
  };
  std::vector<std::thread> deployers;
  deployers.reserve(workers.size() - 1);
  for (int i = 1; i < jobs_; ++i) {
    deployers.emplace_back(deploy_board, i);
  }
  deploy_board(0);
  for (std::thread& deployer : deployers) {
    deployer.join();
  }
  for (const Status& status : deployed) {
    RETURN_IF_ERROR(status);
  }

  telemetry->CampaignStart(config_.os_name, config_.board_name);
  telemetry->StartEmitter([&scheduler] { return scheduler.Snapshot(); });

  // Board 0 fuzzes on the calling thread, boards 1..N-1 on their own: a
  // one-board campaign never leaves the caller's thread.
  std::atomic<bool> stop(false);
  auto run_board = [&](int i) {
    RunFarmSession(&workers[static_cast<size_t>(i)], i, &scheduler, &plan->specs,
                   config_.budget, config_.max_execs, &stop, telemetry->emitter());
  };
  std::vector<std::thread> threads;
  threads.reserve(workers.size() - 1);
  for (int i = 1; i < jobs_; ++i) {
    threads.emplace_back(run_board, i);
  }
  run_board(0);
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (const FarmSession& worker : workers) {
    RETURN_IF_ERROR(worker.status);
  }

  // Farm-wide aggregation is one snapshot merge over the per-board registries —
  // every instrument any layer registered rides along, not just the fields some
  // hand-written summation loop remembered to copy.
  telemetry::MetricsSnapshot merged = telemetry->MergedBoardSnapshot();
  VirtualTime elapsed = 0;
  for (FarmSession& worker : workers) {
    elapsed = std::max(elapsed, worker.executor->Elapsed());
  }
  CampaignResult result = scheduler.Finalize(
      ExecStatsFromSnapshot(merged), elapsed, DebugPortStatsFromSnapshot(merged));
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
