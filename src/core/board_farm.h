// BoardFarm: the campaign loop, fanned out over a farm of boards (§5.1's per-pair
// campaigns, run wide). Each of N board sessions owns its own Deployment,
// TargetExecutor, Generator, and RNG stream, and all of them share one
// CampaignScheduler: seeds are pulled from the shared corpus and per-worker edge
// sets merge into the global coverage map under the scheduler's lock.
//
// Time: every worker burns the same virtual budget on its own board clock, exactly
// as N physical boards racked side by side would; the scheduler aggregates the
// per-worker clocks into one campaign timeline by sampling at the slowest active
// session's elapsed time. Campaign `elapsed` is the longest session.
//
// Threads: board 0 runs on the calling thread, boards 1..N-1 on their own, so a
// one-board campaign (EofFuzzer, --jobs 1) runs entirely on the caller's thread.
//
// Determinism: worker 0 reuses the base seed and RNG streams, so one-board
// campaigns are reproducible bit-for-bit. Workers 1..N-1 derive independent
// streams by hashing (seed, worker).

#ifndef SRC_CORE_BOARD_FARM_H_
#define SRC_CORE_BOARD_FARM_H_

#include <atomic>

#include "src/common/coverage_map.h"
#include "src/core/fuzzer.h"

namespace eof {

// Seed for worker `worker`'s streams: worker 0 keeps `base_seed` (single-threaded
// reproducibility); others get an FNV-derived independent stream.
uint64_t FarmWorkerSeed(uint64_t base_seed, int worker);

// One board session: executor + generator + RNG stream + a local coverage map that
// pre-filters already-seen edges so the global merge holds the campaign lock only
// for genuinely new material. Locally-old edges are a subset of globally-old ones
// (everything a worker drained was merged), so filtering never changes the global
// fresh count.
// Shared between the in-process BoardFarm and the fleet worker (src/fleet), which
// runs the same loop against a batch-local scheduler.
struct FarmSession {
  std::unique_ptr<TargetExecutor> executor;
  std::unique_ptr<fuzz::Generator> generator;
  std::unique_ptr<Rng> rng;
  CoverageMap local_coverage;
  Status status = OkStatus();
};

// Builds one deterministic board session. `seed` is the session's stream seed
// (callers apply the FarmWorkerSeed rule to their shard/worker label first);
// `board` is the session's telemetry handle (may be nullptr-fielded options
// upstream, but the farm always passes a real one).
Result<FarmSession> MakeFarmSession(const FuzzerConfig& config,
                                    const CampaignPlan& plan, uint64_t seed,
                                    telemetry::BoardTelemetry* board);

// Live progress mirror for one session, updated with relaxed stores after every
// execution. The fleet worker's sync pump reads it from another thread to build
// heartbeats without touching the session's executor or clock.
struct FarmProgress {
  std::atomic<uint64_t> elapsed_us{0};
  std::atomic<uint64_t> execs{0};
  std::atomic<bool> done{false};
};

// The shared session loop: pull the next program from the scheduler, encode it
// for the agent mailbox, execute, and merge the outcome — until the budget, the
// exec cap, `stop` (latched farm-wide on executor errors), or `cancel` (optional
// per-session abort, the fleet lease-revocation hook) ends the session.
// `progress` (optional) mirrors the session's clock and exec count for
// cross-thread readers.
void RunFarmSession(FarmSession* session, int index, CampaignScheduler* scheduler,
                    const spec::CompiledSpecs* specs, VirtualDuration budget,
                    uint64_t max_execs, std::atomic<bool>* stop,
                    telemetry::SnapshotEmitter* emitter,
                    const std::atomic<bool>* cancel = nullptr,
                    FarmProgress* progress = nullptr);

class BoardFarm {
 public:
  // `jobs` < 1 is clamped to 1.
  BoardFarm(FuzzerConfig config, int jobs);

  // Deploys `jobs` boards, fuzzes them concurrently until every session exhausts
  // the virtual budget, and reports the merged campaign.
  Result<CampaignResult> Run();

  int jobs() const { return jobs_; }

 private:
  FuzzerConfig config_;
  int jobs_;
};

}  // namespace eof

#endif  // SRC_CORE_BOARD_FARM_H_
