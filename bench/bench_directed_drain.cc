// Double-buffered-drain bench plus a journal round trip through the strict
// report parser, under one gate:
//
//  A. Drain overlap. Two exec-capped FreeRTOS campaigns on the hifive1-revb
//     (192-entry coverage ring, instrumentation on — the ring overflows on
//     ordinary programs, so mid-exec drains are the common case), identical
//     except for the overlapped_drain flag. The double-buffered drain must leave
//     coverage bit-identical while cutting the campaign's virtual time by at
//     least 1.3x — the drain's round trip rides the next continue instead of
//     paying its own link-latency charge.
//
//  C. A --trim campaign journals to JSONL; the strict report parser must load
//     it and surface the same coverage and trim counters the campaign returned —
//     a malformed row or a type regression in those fields fails the bench, not
//     just the render.
//
// Part B gated a frontier-focused scheduling mode. The mode lost a 20-seed
// comparison on every OS and budget (EXPERIMENTS.md "Coverage attribution") and
// was deleted together with part B. The binary and its output files keep their
// names so the BENCH_directed_drain.json history and the CI artifact stay
// continuous.
//
// Emits machine-readable BENCH_directed_drain.json for CI.

#include <chrono>
#include <cstdio>
#include <string>

#include "src/common/logging.h"
#include "src/core/campaign.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"
#include "src/telemetry/report.h"

using namespace eof;

namespace {

constexpr char kJournalPath[] = "BENCH_directed_drain.jsonl";

struct Run {
  uint64_t execs = 0;
  uint64_t coverage = 0;
  uint64_t trim_kept_calls = 0;
  uint64_t trim_removed_calls = 0;
  VirtualTime elapsed = 0;
  double wall_sec = 0;
};

// Chatty, crash-light campaign: generation confined to the pseudo-call subsystem
// (semaphore ping-pong and worker-pipeline loops — hundreds of instrumentation
// events per call) keeps the hifive1's 192-entry ring overflowing mid-exec, so
// instrumentation stalls are the common case. Plain mode pays a background-poll
// pickup (kCovStallPollCost) at every stall; overlapped mode's self-service bank
// flips absorb every other stall and ride the drain on the next continue.
FuzzerConfig DrainConfig(bool overlapped, uint64_t max_execs) {
  FuzzerConfig config;
  config.os_name = "freertos";
  config.board_name = "hifive1-revb";
  config.seed = 11;
  config.budget = 24 * kVirtualHour;
  config.max_execs = max_execs;
  config.sample_points = 8;
  config.overlapped_drain = overlapped;
  // Pseudo-calls only, with instrumentation confined to their module (the paper's
  // Table-4 subsystem confinement): the loop bodies emit an event per round, so
  // every call pushes O(100) entries at the 192-entry ring, while the uninstrumented
  // rest of the image keeps the inter-call settling delay at its base cost.
  config.gen.allowed_subsystems = {"pseudo"};
  config.gen.max_calls = 32;  // long programs amortize per-exec mailbox/restore costs
  config.instrumentation.module_filter = {"freertos/pseudo"};
  // Bias scalars to the interesting-value pool — loop counts land at their declared
  // ceilings far more often, which is exactly the coverage-heavy regime this gate is
  // about (bucketed loop edges need high trip counts to surface).
  config.gen.wild_scalar_per_mille = 1000;
  // Seed the corpus at the constraint ceilings — a full ping-pong emits ~513 events
  // and a full pipeline ~98, cycling the ring several times in one program.
  std::string pingpong;
  std::string pipeline;
  for (int i = 0; i < 24; ++i) {
    pingpong += "r" + std::to_string(i) + " = syz_sem_pingpong(0x200)\n";
    pipeline += "r" + std::to_string(i) + " = syz_worker_pipeline(0x10, 0x40)\n";
  }
  config.seed_programs = {pingpong, pipeline};
  return config;
}

// Part C's campaign: a short FreeRTOS run with trim-on-admission, journaled.
FuzzerConfig TrimJournalConfig(VirtualDuration budget) {
  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = 9;
  config.budget = budget;
  config.trim = true;
  config.metrics_out = kJournalPath;
  config.metrics_interval = budget / 16;
  return config;
}

bool RunOne(const FuzzerConfig& config, const char* label, Run* out) {
  EofFuzzer fuzzer(config);
  auto start = std::chrono::steady_clock::now();
  auto result = fuzzer.Run();
  out->wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!result.ok()) {
    fprintf(stderr, "campaign(%s) failed: %s\n", label,
            result.status().ToString().c_str());
    return false;
  }
  out->execs = result->execs;
  out->coverage = result->final_coverage;
  out->trim_kept_calls = result->trim_kept_calls;
  out->trim_removed_calls = result->trim_removed_calls;
  out->elapsed = result->elapsed;
  return true;
}

}  // namespace

int main() {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }
  SetMinLogSeverity(LogSeverity::kError);
  bool ok = true;

  // --- Part A: double-buffered drain ---------------------------------------
  constexpr uint64_t kDrainExecs = 400;
  printf("== A: drain overlap, FreeRTOS on hifive1-revb, %llu execs each ==\n",
         static_cast<unsigned long long>(kDrainExecs));
  Run plain, overlapped;
  if (!RunOne(DrainConfig(false, kDrainExecs), "plain-drain", &plain) ||
      !RunOne(DrainConfig(true, kDrainExecs), "overlapped-drain", &overlapped)) {
    return 1;
  }
  double overlap_ratio =
      overlapped.elapsed > 0 ? double(plain.elapsed) / double(overlapped.elapsed) : 0;
  printf("%-12s %10s %10s %14s\n", "drain", "execs", "coverage", "elapsed_vs");
  printf("%-12s %10llu %10llu %14.1f\n", "plain",
         static_cast<unsigned long long>(plain.execs),
         static_cast<unsigned long long>(plain.coverage),
         double(plain.elapsed) / kVirtualSecond);
  printf("%-12s %10llu %10llu %14.1f\n", "overlapped",
         static_cast<unsigned long long>(overlapped.execs),
         static_cast<unsigned long long>(overlapped.coverage),
         double(overlapped.elapsed) / kVirtualSecond);
  printf("overlap saves: plain/overlapped = %.2fx virtual time\n", overlap_ratio);
  if (plain.coverage != overlapped.coverage) {
    fprintf(stderr, "FAIL: overlapped drain changed coverage (%llu vs %llu)\n",
            static_cast<unsigned long long>(plain.coverage),
            static_cast<unsigned long long>(overlapped.coverage));
    ok = false;
  }
  if (overlap_ratio < 1.3) {
    fprintf(stderr, "FAIL: drain overlap saves only %.2fx virtual time (need 1.3x)\n",
            overlap_ratio);
    ok = false;
  }

  // --- Part C: a journaled --trim campaign through the strict report parser ---
  Run trimmed;
  if (!RunOne(TrimJournalConfig(ScaledCampaignBudget() / 16), "trim", &trimmed)) {
    return 1;
  }
  if (trimmed.trim_kept_calls == 0) {
    fprintf(stderr, "FAIL: trim campaign kept no attributed calls\n");
    ok = false;
  }
  auto report = telemetry::LoadReportFromFile(kJournalPath);
  if (!report.ok()) {
    fprintf(stderr, "FAIL: strict report parser refused the trim journal: %s\n",
            report.status().ToString().c_str());
    ok = false;
  } else {
    printf("\n== C: eof-report over %s ==\n", kJournalPath);
    printf("report: coverage=%llu trim_kept_calls=%llu trim_removed_calls=%llu\n",
           static_cast<unsigned long long>(report->final_coverage),
           static_cast<unsigned long long>(report->trim_kept_calls),
           static_cast<unsigned long long>(report->trim_removed_calls));
    const struct {
      const char* name;
      uint64_t journaled;
      uint64_t campaign;
    } checks[] = {
        {"coverage", report->final_coverage, trimmed.coverage},
        {"trim_kept_calls", report->trim_kept_calls, trimmed.trim_kept_calls},
        {"trim_removed_calls", report->trim_removed_calls, trimmed.trim_removed_calls},
    };
    for (const auto& check : checks) {
      if (check.journaled != check.campaign) {
        fprintf(stderr, "FAIL: journaled %s %llu != campaign %llu\n", check.name,
                static_cast<unsigned long long>(check.journaled),
                static_cast<unsigned long long>(check.campaign));
        ok = false;
      }
    }
  }

  FILE* json = fopen("BENCH_directed_drain.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"overlap\": {\"execs\": %llu, \"coverage\": %llu,"
            " \"plain_elapsed_vus\": %llu, \"overlapped_elapsed_vus\": %llu,"
            " \"time_ratio\": %.4f, \"wall_sec\": %.3f},\n"
            "  \"trim_journal\": {\"coverage\": %llu, \"trim_kept_calls\": %llu,"
            " \"trim_removed_calls\": %llu, \"wall_sec\": %.3f}\n"
            "}\n",
            static_cast<unsigned long long>(kDrainExecs),
            static_cast<unsigned long long>(overlapped.coverage),
            static_cast<unsigned long long>(plain.elapsed),
            static_cast<unsigned long long>(overlapped.elapsed), overlap_ratio,
            plain.wall_sec + overlapped.wall_sec,
            static_cast<unsigned long long>(trimmed.coverage),
            static_cast<unsigned long long>(trimmed.trim_kept_calls),
            static_cast<unsigned long long>(trimmed.trim_removed_calls),
            trimmed.wall_sec);
    fclose(json);
    printf("wrote BENCH_directed_drain.json\n");
  }
  return ok ? 0 : 1;
}
