// hostbench: one host-time measurement of one fuzzing campaign, printed as one JSON
// line on stdout. run.py starts one process per measurement (so peak RSS is per
// campaign and every campaign starts cold, as `eof fuzz` does) and aggregates the
// lines into the benchmark's metrics.
//
//   hostbench setup <workload> <seed>
//       Times one campaign set-up: PrepareCampaign, then MakeFarmSession per board.
//   hostbench campaign <workload> <seed>
//       Times one untraced campaign through the public entry point (EofFuzzer::Run
//       for one board, BoardFarm::Run for a farm).
//   hostbench trace <workload> <seed> <trace.json | ->
//       Runs the same campaign through a copy of RunFarmSession's loop that times
//       every call into a layer. Writes the spans as a Chrome trace (one lane per
//       board; "-" writes none) and prints the per-layer table.
//
// Every board runs a fixed number of executions under a virtual budget that never
// binds, so two builds with the same virtual behaviour do identical work.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/core/board_farm.h"
#include "src/core/bug_catalog.h"
#include "src/core/fuzzer.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/telemetry/trace_export.h"

namespace eof {
namespace {

using Clock = std::chrono::steady_clock;
using telemetry::JsonEscape;

struct Workload {
  const char* name;
  const char* os;
  int boards;
  RestoreMode mode;
  uint64_t execs_per_board;
  const char* excluded_subsystem;  // nullptr = fuzz every subsystem
};

// crash_reflash / crash_snapshot: the restore layer does nearly all the work, used
// both ways. Their host time swings by a third from seed to seed with the number
// of crashes found, so they run short campaigns and run.py averages many seeds.
// farm_clean: few crashes, so periodic resets, pure execs, generation and the
// shared scheduler carry the time, with three boards contending for its lock. It
// leaves out freertos' partition calls: esp_partition_read bounds `offset + length`
// in 64-bit arithmetic, a mutated length near 2^64 wraps that check and the one in
// Flash::Read, and the std::vector built from the wrapped range throws, aborting
// the process in a few percent of campaigns (esp_partition_write wraps the same
// way into a neighbouring partition).
constexpr Workload kWorkloads[] = {
    {"crash_reflash", "rtthread", 1, RestoreMode::kReflash, 500, nullptr},
    {"crash_snapshot", "rtthread", 1, RestoreMode::kSnapshot, 500, nullptr},
    {"farm_clean", "freertos", 3, RestoreMode::kReflash, 4000, "partition"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

FuzzerConfig MakeConfig(const Workload& workload, uint64_t seed) {
  FuzzerConfig config;
  config.os_name = workload.os;
  if (workload.excluded_subsystem != nullptr) {
    Result<OsInfo> info = OsRegistry::Instance().Find(workload.os);
    if (info.ok()) {
      std::unique_ptr<Os> os = info->factory();
      for (const ApiSpec& spec : os->registry().all()) {
        std::vector<std::string>& allowed = config.gen.allowed_subsystems;
        if (spec.subsystem != workload.excluded_subsystem &&
            std::find(allowed.begin(), allowed.end(), spec.subsystem) == allowed.end()) {
          allowed.push_back(spec.subsystem);
        }
      }
    }
  }
  config.seed = seed;
  config.restore_mode = workload.mode;
  config.max_execs = workload.execs_per_board;
  // Far beyond what the exec cap can consume: the cap always ends the session.
  config.budget = 10000 * kVirtualHour;
  config.sample_points = 12;
  return config;
}

Result<CampaignResult> RunPublicEntry(const Workload& workload, const FuzzerConfig& config) {
  if (workload.boards == 1) {
    return EofFuzzer(config).Run();
  }
  return BoardFarm(config, workload.boards).Run();
}

// ---------------------------------------------------------------------------------
// Correctness gate and fingerprint.

std::vector<int> BugIds(const CampaignResult& result) {
  std::vector<int> ids;
  for (const BugReport& bug : result.bugs) {
    ids.push_back(bug.catalog_id);
  }
  return ids;
}

// The virtual-time tuple a host-only change must leave untouched.
uint64_t Fingerprint(const CampaignResult& result) {
  uint64_t hash = kFnvOffsetBasis;
  for (uint64_t value : {result.execs, result.final_coverage, result.crashes, result.stalls,
                         result.restores, result.corpus_size, result.elapsed}) {
    hash = HashCombine(hash, value);
  }
  for (int id : BugIds(result)) {
    hash = HashCombine(hash, static_cast<uint64_t>(id));
  }
  return hash;
}

std::vector<std::string> GateViolations(const Workload& workload,
                                        const CampaignResult& result) {
  std::vector<std::string> violations;
  const uint64_t want = workload.execs_per_board * static_cast<uint64_t>(workload.boards);
  if (result.execs != want) {
    violations.push_back(StrFormat("execs %llu != %llu",
                                   static_cast<unsigned long long>(result.execs),
                                   static_cast<unsigned long long>(want)));
  }
  for (int id : BugIds(result)) {
    const BugInfo* info = FindBug(id);
    if (info == nullptr || info->os != workload.os) {
      violations.push_back(StrFormat("bug id %d not in the %s catalog", id, workload.os));
    }
  }
  if (result.journal_dropped != 0) {
    violations.push_back("journal dropped rows");
  }
  return violations;
}

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

std::string JsonInts(const std::vector<int>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(items[i]);
  }
  return out + "]";
}

// The fields every mode prints about the public-entry campaign.
std::string ResultFields(const CampaignResult& result, double wall_s) {
  return StrFormat(
      "\"wall_s\":%.9f,\"execs\":%llu,\"rejected\":%llu,\"coverage\":%llu,"
      "\"crashes\":%llu,\"stalls\":%llu,\"restores\":%llu,\"corpus\":%llu,"
      "\"elapsed_us\":%llu,\"bugs\":%s,\"fingerprint\":\"%016llx\"",
      wall_s, static_cast<unsigned long long>(result.execs),
      static_cast<unsigned long long>(result.rejected),
      static_cast<unsigned long long>(result.final_coverage),
      static_cast<unsigned long long>(result.crashes),
      static_cast<unsigned long long>(result.stalls),
      static_cast<unsigned long long>(result.restores),
      static_cast<unsigned long long>(result.corpus_size),
      static_cast<unsigned long long>(result.elapsed), JsonInts(BugIds(result)).c_str(),
      static_cast<unsigned long long>(Fingerprint(result)));
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------------
// setup and campaign modes. Each runs in a fresh process: a process's first
// deployment pays more per reflash restore than later ones, so a set-up done before
// the campaign in the same process would make the campaign look faster than
// `eof fuzz` runs it.

// `planned` is the iterations the failed campaign set out to run, all of them failed.
int PrintError(const Workload& workload, const Status& status) {
  std::printf("{\"ok\":false,\"planned\":%llu,\"error\":\"%s\"}\n",
              static_cast<unsigned long long>(workload.execs_per_board * workload.boards),
              JsonEscape(status.ToString()).c_str());
  return 1;
}

// Set-up as the campaign runners do it: spec mining once, then every board's image
// build, flash, boot and (snapshot mode) snapshot capture.
int RunSetupMode(const Workload& workload, uint64_t seed) {
  const FuzzerConfig config = MakeConfig(workload, seed);
  Clock::time_point start = Clock::now();
  Result<CampaignPlan> plan = PrepareCampaign(config);
  if (!plan.ok()) {
    return PrintError(workload, plan.status());
  }
  auto telemetry =
      telemetry::CampaignTelemetry::Create(MakeTelemetryOptions(config, workload.boards));
  if (!telemetry.ok()) {
    return PrintError(workload, telemetry.status());
  }
  std::vector<FarmSession> sessions;
  for (int i = 0; i < workload.boards; ++i) {
    Result<FarmSession> session =
        MakeFarmSession(config, *plan, FarmWorkerSeed(seed, i), (*telemetry)->board(i));
    if (!session.ok()) {
      return PrintError(workload, session.status());
    }
    sessions.push_back(std::move(session).value());
  }
  std::printf("{\"ok\":true,\"setup_s\":%.9f}\n", SecondsSince(start));
  return 0;
}

int RunCampaignMode(const Workload& workload, uint64_t seed) {
  const FuzzerConfig config = MakeConfig(workload, seed);
  Clock::time_point start = Clock::now();
  Result<CampaignResult> result = RunPublicEntry(workload, config);
  const double wall_s = SecondsSince(start);
  if (!result.ok()) {
    return PrintError(workload, result.status());
  }
  std::printf("{\"ok\":true,%s,\"peak_rss_mib\":%.6f,\"gate\":%s}\n",
              ResultFields(*result, wall_s).c_str(), PeakRssMiB(),
              JsonStrings(GateViolations(workload, *result)).c_str());
  return 0;
}

// ---------------------------------------------------------------------------------
// trace mode: RunFarmSession's loop with every layer call timed.

enum Layer : uint8_t {
  kSpecMine,
  kDeploy,
  kNext,
  kEncode,
  kExec,
  kPeriodicReset,
  kRestore,
  kLocalMerge,
  kOutcome,
  kValidate,
  kIter,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "spec.mine",    "core.deploy",        "fuzz.next",    "agent.encode",
    "core.exec",    "core.periodic_reset", "core.restore", "common.local_merge",
    "core.outcome", "core.validate",      "loop.iter",
};

struct Span {
  Layer layer;
  int board;
  Clock::time_point start;
  Clock::time_point end;
  uint64_t iteration;  // 1-based loop iteration; 0 = set-up
};

// One board's traced session: its spans, its loop's thread time, and what the
// counters say about its iterations.
struct TracedBoard {
  std::vector<Span> spans;
  double loop_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t encode_skipped = 0;
  uint64_t hits_drained = 0;
  uint64_t hits_fresh = 0;
};

void RunTracedSession(FarmSession* session, int index, CampaignScheduler* scheduler,
                      const spec::CompiledSpecs* specs, uint64_t max_execs,
                      std::atomic<bool>* stop, telemetry::MetricsRegistry* campaign,
                      TracedBoard* traced) {
  // Handles fetched once (registration is idempotent); Value() around a call tells
  // what kind of work the call did without snapshotting the registry.
  telemetry::MetricsRegistry& board = session->executor->telemetry()->registry();
  const telemetry::Counter* restores = board.RegisterCounter("exec.restores");
  const telemetry::Counter* resets = board.RegisterCounter("link.resets");
  const telemetry::Counter* warm = board.RegisterCounter("link.warm_restores");
  const telemetry::Counter* rejected = board.RegisterCounter("exec.rejected");
  // Campaign-wide: another board's validation can land between the reads, but
  // only snapshot-mode campaigns validate and those run one board.
  const telemetry::Counter* replays = campaign->RegisterCounter("campaign.validation_replays");

  std::vector<Span>& spans = traced->spans;
  spans.reserve(max_execs * 6 + 16);
  auto timed = [&](Layer layer, uint64_t iteration, auto&& call) {
    Clock::time_point start = Clock::now();
    call();
    spans.push_back(Span{layer, index, start, Clock::now(), iteration});
  };

  Clock::time_point loop_start = Clock::now();
  uint64_t execs_run = 0;
  uint64_t iteration = 0;
  while (execs_run < max_execs && !stop->load(std::memory_order_relaxed)) {
    ++iteration;
    ++traced->attempted;
    Clock::time_point iter_start = Clock::now();
    fuzz::Program program;
    timed(kNext, iteration,
          [&] { program = scheduler->NextProgram(*session->generator, *session->rng); });
    std::vector<uint8_t> encoded;
    bool fits = false;
    timed(kEncode, iteration, [&] { fits = EncodeForMailbox(*specs, &program, &encoded); });
    if (!fits) {
      ++traced->encode_skipped;
      ++traced->failed;
      spans.push_back(Span{kIter, index, iter_start, Clock::now(), iteration});
      continue;
    }
    const uint64_t restores_before = restores->Value();
    const uint64_t resets_before = resets->Value() + warm->Value();
    const uint64_t rejected_before = rejected->Value();
    Clock::time_point exec_start = Clock::now();
    Result<ExecOutcome> outcome_or = session->executor->ExecuteOne(encoded);
    Clock::time_point exec_end = Clock::now();
    Layer exec_layer = restores->Value() != restores_before ? kRestore
                       : resets->Value() + warm->Value() != resets_before ? kPeriodicReset
                                                                          : kExec;
    spans.push_back(Span{exec_layer, index, exec_start, exec_end, iteration});
    if (!outcome_or.ok()) {
      session->status = outcome_or.status();
      stop->store(true, std::memory_order_relaxed);
      ++traced->failed;
      spans.push_back(Span{kIter, index, iter_start, Clock::now(), iteration});
      break;
    }
    if (rejected->Value() != rejected_before) {
      ++traced->failed;
    }
    ExecOutcome outcome = std::move(outcome_or).value();
    ++execs_run;
    std::vector<CovHit> fresh_here;
    timed(kLocalMerge, iteration, [&] {
      session->local_coverage.AddBatchAttributed(outcome.hits, &fresh_here);
    });
    traced->hits_drained += outcome.hits.size();
    traced->hits_fresh += fresh_here.size();
    outcome.hits = std::move(fresh_here);
    const uint64_t replays_before = replays->Value();
    Clock::time_point outcome_start = Clock::now();
    scheduler->OnOutcome(program, outcome, *session->generator,
                         session->executor->Elapsed(), index);
    Clock::time_point outcome_end = Clock::now();
    spans.push_back(Span{replays->Value() != replays_before ? kValidate : kOutcome, index,
                         outcome_start, outcome_end, iteration});
    spans.push_back(Span{kIter, index, iter_start, outcome_end, iteration});
  }
  // Iterations an executor error (on this board or another) kept this board from
  // reaching count as attempted and failed.
  const uint64_t unreached = max_execs - execs_run - (session->status.ok() ? 0 : 1);
  traced->attempted += unreached;
  traced->failed += unreached;
  session->executor->SetCoverageGauge(session->local_coverage.Count());
  scheduler->OnWorkerDone(index);
  traced->loop_s = SecondsSince(loop_start);
}

// The traced campaign: BoardFarm::Run's set-up and aggregation around
// RunTracedSession, with set-up calls timed too.
struct TracedCampaign {
  Result<CampaignResult> result = InternalError("not run");
  double wall_s = 0;
  double setup_s = 0;
  std::vector<TracedBoard> boards;
  Clock::time_point origin;
  telemetry::MetricsSnapshot loop_counters;  // board + campaign registries, loop only
};

TracedCampaign RunTracedCampaign(const Workload& workload, const FuzzerConfig& config) {
  TracedCampaign traced;
  traced.boards.resize(static_cast<size_t>(workload.boards));
  std::vector<Span>& setup_spans = traced.boards[0].spans;
  traced.origin = Clock::now();

  Clock::time_point start = Clock::now();
  Result<CampaignPlan> plan_or = PrepareCampaign(config);
  setup_spans.push_back(Span{kSpecMine, 0, start, Clock::now(), 0});
  if (!plan_or.ok()) {
    traced.result = plan_or.status();
    return traced;
  }
  CampaignPlan plan = std::move(plan_or).value();
  auto telemetry_or =
      telemetry::CampaignTelemetry::Create(MakeTelemetryOptions(config, workload.boards));
  if (!telemetry_or.ok()) {
    traced.result = telemetry_or.status();
    return traced;
  }
  std::unique_ptr<telemetry::CampaignTelemetry> telemetry = std::move(telemetry_or).value();
  CampaignScheduler::Options scheduler_options =
      MakeSchedulerOptions(config, workload.boards);
  scheduler_options.registry = &telemetry->campaign_registry();
  scheduler_options.sink = telemetry->sink();
  CampaignScheduler scheduler(plan.specs, scheduler_options);
  scheduler.SeedCorpus(config.seed_programs);

  std::vector<FarmSession> sessions(static_cast<size_t>(workload.boards));
  for (int i = 0; i < workload.boards; ++i) {
    start = Clock::now();
    Result<FarmSession> session =
        MakeFarmSession(config, plan, FarmWorkerSeed(config.seed, i), telemetry->board(i));
    setup_spans.push_back(Span{kDeploy, i, start, Clock::now(), 0});
    if (!session.ok()) {
      traced.result = session.status();
      return traced;
    }
    sessions[static_cast<size_t>(i)] = std::move(session).value();
  }
  telemetry->CampaignStart(config.os_name, config.board_name);
  traced.setup_s = SecondsSince(traced.origin);

  telemetry::MetricsSnapshot before = telemetry->MergedBoardSnapshot();
  before.Merge(telemetry->campaign_registry().Snapshot());
  std::atomic<bool> stop(false);
  auto run_board = [&](int i) {
    RunTracedSession(&sessions[static_cast<size_t>(i)], i, &scheduler, &plan.specs,
                     config.max_execs, &stop, &telemetry->campaign_registry(),
                     &traced.boards[static_cast<size_t>(i)]);
  };
  if (workload.boards == 1) {
    // EofFuzzer::Run fuzzes on the calling thread, and where a campaign runs
    // matters to host time: the same single-board campaign on a worker thread
    // takes about a quarter less wall time. Trace it where it really runs.
    run_board(0);
  } else {
    std::vector<std::thread> threads;
    for (int i = 0; i < workload.boards; ++i) {
      threads.emplace_back(run_board, i);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  for (const FarmSession& session : sessions) {
    if (!session.status.ok()) {
      traced.result = session.status;
      return traced;
    }
  }

  telemetry::MetricsSnapshot merged = telemetry->MergedBoardSnapshot();
  traced.loop_counters = merged;
  traced.loop_counters.Merge(telemetry->campaign_registry().Snapshot());
  traced.loop_counters = traced.loop_counters.Diff(before);
  VirtualTime elapsed = 0;
  for (FarmSession& session : sessions) {
    elapsed = std::max(elapsed, session.executor->Elapsed());
  }
  CampaignResult result = scheduler.Finalize(ExecStatsFromSnapshot(merged), elapsed,
                                             DebugPortStatsFromSnapshot(merged));
  telemetry->CampaignEnd(elapsed);
  result.journal_dropped = telemetry->journal_dropped();
  traced.result = std::move(result);
  traced.wall_s = SecondsSince(traced.origin);
  return traced;
}

// Nearest-rank percentile of sorted durations, in microseconds.
double PercentileUs(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted_us.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted_us.size());
  return sorted_us[rank - 1];
}

// The per-layer table plus the registry-derived counts, as "name":value pairs.
std::string LayerMetrics(const TracedCampaign& traced) {
  std::vector<double> durations_us[kLayerCount];
  double loop_s = 0;
  uint64_t attempted = 0, failed = 0, skipped = 0, drained = 0, fresh = 0;
  for (const TracedBoard& board : traced.boards) {
    loop_s += board.loop_s;
    attempted += board.attempted;
    failed += board.failed;
    skipped += board.encode_skipped;
    drained += board.hits_drained;
    fresh += board.hits_fresh;
    for (const Span& span : board.spans) {
      durations_us[span.layer].push_back(
          std::chrono::duration<double, std::micro>(span.end - span.start).count());
    }
  }
  std::string out;
  auto add = [&out](const std::string& name, double value) {
    out += StrFormat("%s\"%s\":%.17g", out.empty() ? "" : ",", name.c_str(), value);
  };
  double explained_s = 0;
  for (int layer = 0; layer < kLayerCount; ++layer) {
    std::vector<double>& us = durations_us[layer];
    std::sort(us.begin(), us.end());
    double busy_s = 0;
    for (double d : us) {
      busy_s += d / 1e6;
    }
    // Set-up layers are shares of set-up time; loop layers of summed loop thread time.
    const bool setup_layer = layer == kSpecMine || layer == kDeploy;
    const double base = setup_layer ? traced.setup_s : loop_s;
    if (!setup_layer && layer != kIter) {
      explained_s += busy_s;
    }
    const std::string name = kLayerNames[layer];
    add(name + ".calls", static_cast<double>(us.size()));
    add(name + ".busy_s", busy_s);
    add(name + ".share", base > 0 ? busy_s / base : 0);
    add(name + ".p50_us", PercentileUs(us, 0.50));
    add(name + ".p99_us", PercentileUs(us, 0.99));
  }
  add("loop.thread_s", loop_s);
  add("loop.explained_ratio", loop_s > 0 ? explained_s / loop_s : 0);
  add("loop.failed_ratio", attempted > 0 ? static_cast<double>(failed) / attempted : 0);
  add("agent.encode_skipped", static_cast<double>(skipped));

  const telemetry::MetricsSnapshot& c = traced.loop_counters;
  const double execs = static_cast<double>(std::max<uint64_t>(c.CounterValue("exec.execs"), 1));
  const double flashed = static_cast<double>(c.CounterValue("link.flash_bytes"));
  const double flash_skipped = static_cast<double>(c.CounterValue("link.flash_skipped_bytes"));
  add("hw.transactions_per_exec", c.CounterValue("link.transactions") / execs);
  add("hw.bytes_read_per_exec", c.CounterValue("link.bytes_read") / execs);
  add("hw.bytes_written_per_exec", c.CounterValue("link.bytes_written") / execs);
  add("hw.flash_bytes", flashed);
  add("hw.flash_skipped_ratio",
      flashed + flash_skipped > 0 ? flash_skipped / (flashed + flash_skipped) : 0);
  add("hw.resets", static_cast<double>(c.CounterValue("link.resets")));
  add("hw.warm_restores", static_cast<double>(c.CounterValue("link.warm_restores")));
  add("hw.timeouts", static_cast<double>(c.CounterValue("link.timeouts")));
  add("exec.crashes", static_cast<double>(c.CounterValue("campaign.crashes")));
  add("exec.stalls", static_cast<double>(c.CounterValue("exec.stalls")));
  add("exec.restores", static_cast<double>(c.CounterValue("exec.restores")));
  add("exec.snapshot_restores", static_cast<double>(c.CounterValue("exec.snapshot_restores")));
  add("exec.snapshot_bytes", static_cast<double>(c.CounterValue("exec.snapshot_bytes")));
  add("common.fresh_hit_ratio", drained > 0 ? static_cast<double>(fresh) / drained : 0);
  add("fuzz.corpus_admit_ratio", c.CounterValue("campaign.corpus_adds") / execs);
  return out;
}

// Chrome trace-event JSON in the shape `eof report --trace-out` writes: "X" events
// on pid 0, one lane (tid) per board. Timestamps are host microseconds since the
// traced campaign began; span_id is the loop iteration (0 for set-up), so every
// span of one iteration shares it.
Status WriteChromeTrace(const TracedCampaign& traced, const std::string& path) {
  std::vector<telemetry::JournalRow> rows;
  for (const TracedBoard& board : traced.boards) {
    for (const Span& span : board.spans) {
      telemetry::JournalRow row;
      row.type = "span";
      row.worker = span.board;
      row.texts["span"] = kLayerNames[span.layer];
      row.uints["begin_us"] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(span.start - traced.origin)
              .count());
      row.uints["dur_us"] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(span.end - span.start)
              .count());
      row.uints["span_id"] = span.iteration;
      rows.push_back(std::move(row));
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << telemetry::RenderChromeTrace(rows);
  out.close();
  if (!out) {
    return InternalError("cannot write " + path);
  }
  return OkStatus();
}

int RunTraceMode(const Workload& workload, uint64_t seed, const std::string& trace_out) {
  TracedCampaign traced = RunTracedCampaign(workload, MakeConfig(workload, seed));
  if (!traced.result.ok()) {
    return PrintError(workload, traced.result.status());
  }
  std::vector<std::string> gate = GateViolations(workload, *traced.result);
  if (trace_out != "-") {
    Status written = WriteChromeTrace(traced, trace_out);
    if (!written.ok()) {
      gate.push_back(written.ToString());
    }
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const TracedBoard& board : traced.boards) {
    attempted += board.attempted;
    failed += board.failed;
  }
  std::printf("{\"ok\":true,%s,\"attempted\":%llu,\"failed\":%llu,\"layers\":{%s},"
              "\"gate\":%s}\n",
              ResultFields(*traced.result, traced.wall_s).c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), LayerMetrics(traced).c_str(),
              JsonStrings(gate).c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench setup <workload> <seed>\n"
               "       hostbench campaign <workload> <seed>\n"
               "       hostbench trace <workload> <seed> <trace.json | ->\n"
               "workloads: crash_reflash crash_snapshot farm_clean\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  const std::string mode = argv[1];
  const Workload* workload = FindWorkload(argv[2]);
  char* end = nullptr;
  const uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (workload == nullptr || end == argv[3] || *end != '\0') {
    return Usage();
  }
  Status registered = RegisterAllOses();
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  if (mode == "setup" && argc == 4) {
    return RunSetupMode(*workload, seed);
  }
  if (mode == "campaign" && argc == 4) {
    return RunCampaignMode(*workload, seed);
  }
  if (mode == "trace" && argc == 5) {
    return RunTraceMode(*workload, seed, argv[4]);
  }
  return Usage();
}

}  // namespace
}  // namespace eof

int main(int argc, char** argv) { return eof::Main(argc, argv); }
