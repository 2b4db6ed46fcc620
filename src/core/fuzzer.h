// The EOF fuzzing engine (Figure 3), wired from two layers:
//
//   TargetExecutor   (executor.h)  — one board session: deployment, breakpoint-
//                                    synchronised execution, coverage drain,
//                                    Algorithm-1 watchdogs and restoration.
//   CampaignScheduler (scheduler.h) — campaign state: corpus, global coverage map,
//                                    bug dedup, input scheduling, sampled series.
//
// One campaign loop (BoardFarm, board_farm.h) runs one executor per attached board
// against one scheduler; EofFuzzer is that loop on a single board. The baselines in
// src/baselines configure this same engine where their design matches (EOF-nf =
// feedback off) and compose the shared pieces where it does not.

#ifndef SRC_CORE_FUZZER_H_
#define SRC_CORE_FUZZER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/core/bug_catalog.h"
#include "src/core/deployment.h"
#include "src/core/executor.h"
#include "src/core/scheduler.h"
#include "src/fuzz/generator.h"
#include "src/spec/spec_miner.h"

namespace eof {

struct FuzzerConfig {
  std::string os_name;
  std::string board_name;  // "" = OS default evaluation board

  // Feedback & monitors.
  bool coverage_feedback = true;    // corpus + generator credit (EOF-nf turns this off)
  bool log_monitor = true;
  bool exception_monitor = true;
  bool watchdogs = true;            // Algorithm 1; off = ablation (manual intervention)
  bool power_probe = false;         // §6 extension: ammeter plateau detection
  RestoreMode restore_mode = RestoreMode::kReflash;

  // Input generation.
  bool use_extended_specs = true;
  fuzz::GeneratorOptions gen;

  // Build.
  InstrumentationOptions instrumentation;

  // Initial corpus (reproducer-text programs, §4.5 "initial corpus"). Parsed against the
  // mined specs at setup; entries that fail to parse are skipped.
  std::vector<std::string> seed_programs;

  // §6 extension: inject random peripheral events (GPIO edges, serial RX, timer ticks)
  // alongside each test case, driving interrupt paths. Off by default (the base paper).
  bool inject_peripheral_events = false;

  // Double-buffered mid-program coverage drains: ride each ring drain on the next
  // continue's round trip instead of paying a separate transaction. Drained entries
  // are bit-identical either way.
  bool overlapped_drain = true;
  // Edge-preserving corpus trim on admission: keep only the calls fresh edges
  // attribute to plus their transitive result producers.
  bool trim = false;
  // Fill CampaignResult::corpus_programs at Finalize (fleet differential tests,
  // corpus checkpointing). Observer-only: never touches the schedule.
  bool export_corpus = false;

  uint64_t seed = 1;
  VirtualDuration budget = 10 * kVirtualMinute;
  // Per-worker execution cap (0 = unlimited): the session stops at whichever of
  // budget / max_execs it hits first. Differential tests cap execs so reflash-mode
  // and snapshot-mode campaigns run the exact same input sequence even though the
  // snapshot path burns far less virtual time per restore.
  uint64_t max_execs = 0;
  uint32_t sample_points = 96;         // coverage time-series resolution
  uint32_t periodic_reset_execs = 24;  // reboot cadence to shed piled-up kernel state

  // Telemetry journal: when `metrics_out` is a path, campaign events and periodic
  // per-board / farm-wide metric snapshots stream there as JSONL, one snapshot row
  // per `metrics_interval` of virtual time. "" = counters only, no journal. The
  // journal is an observer: fuzzing results are bit-identical either way.
  std::string metrics_out;
  VirtualDuration metrics_interval = 30 * kVirtualSecond;
};

// The fields a fleet LeaseGrant carries, in wire order (src/fleet/proto.cc walks this
// list both ways). A knob the CLI can set belongs here; generator and instrumentation
// tuning, `metrics_out` and `export_corpus` stay at their defaults on the worker.
template <class IO>
void Fields(IO& io, FuzzerConfig& c) {
  io(c.os_name, c.board_name, c.seed, c.budget, c.max_execs, c.metrics_interval,
     c.sample_points, c.periodic_reset_execs, c.restore_mode, c.coverage_feedback,
     c.log_monitor, c.exception_monitor, c.watchdogs, c.power_probe, c.use_extended_specs,
     c.inject_peripheral_events, c.overlapped_drain, c.trim, c.seed_programs);
}

// Shared campaign setup (Figure 3 step ②): mines + post-validates the target's API
// specifications, resolves the OS exception symbol and builds board 0's firmware image.
// Board-independent, so farms run it once and share the result across workers.
struct CampaignPlan {
  spec::CompiledSpecs specs;
  std::string exception_symbol;
  // Board 0's image, built once from the campaign seed. Board 0's session, the cold-boot
  // validator and replay all deploy this one image; images are immutable.
  std::shared_ptr<const FirmwareImage> image;
};
Result<CampaignPlan> PrepareCampaign(const FuzzerConfig& config);

// What the board on stream `seed_stream` deploys, and so what a cold-boot replay of its
// sightings deploys: the campaign's os, board and instrumentation on the image built from
// `seed_stream`. Board 0's stream is `config.seed`, and its image is `plan.image`; other
// boards' images are left for the deployment to build.
DeployOptions ColdBootDeployOptions(const FuzzerConfig& config, const CampaignPlan& plan,
                                    uint64_t seed_stream);

// The board-session slice of `config` for the board on stream `seed`, for constructing
// executors: its deployment (ColdBootDeployOptions) and `plan`'s exception symbol.
ExecutorOptions MakeExecutorOptions(const FuzzerConfig& config, const CampaignPlan& plan,
                                    uint64_t seed);

// The campaign-state slice of `config`, for constructing schedulers. Snapshot-mode
// campaigns get the cold-boot validation oracle, which replays first sightings on a
// freshly flashed board with the campaign's `plan` (mined here when none is shared).
CampaignScheduler::Options MakeSchedulerOptions(const FuzzerConfig& config, int workers,
                                                std::shared_ptr<const CampaignPlan> plan = nullptr);

// The telemetry slice of `config`, for constructing the campaign's CampaignTelemetry.
telemetry::CampaignTelemetry::Options MakeTelemetryOptions(const FuzzerConfig& config,
                                                           int workers);

class EofFuzzer {
 public:
  explicit EofFuzzer(FuzzerConfig config) : config_(std::move(config)) {}

  // Deploys one board, fuzzes until the virtual budget is exhausted, and reports:
  // a one-board BoardFarm campaign, run on the calling thread.
  Result<CampaignResult> Run();

 private:
  FuzzerConfig config_;
};

}  // namespace eof

#endif  // SRC_CORE_FUZZER_H_
