// Debug-link batching bench (§5.5 link overhead): one FreeRTOS campaign on the
// vectored/batched debug link (mailbox publish, stop+status coalescing,
// one-round-trip coverage drain, delta reflash), priced twice: as it ran, and per op —
// every op a batch carried counted as its own round trip, the traffic of a debugger
// that issues one command per operation. Reports debug-port transactions per
// execution both ways, plus a deployment-level delta-reflash probe, and emits the
// machine-readable BENCH_port_batching.json for CI.
//
// Batching must cut per-execution link transactions by at least 2x against the
// per-op pricing, and a no-corruption restore must checksum-skip every pristine
// partition.

#include <chrono>
#include <cstdio>

#include "src/common/logging.h"
#include "src/core/campaign.h"
#include "src/core/deployment.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"

using namespace eof;

namespace {

double PerExec(uint64_t total, uint64_t execs) {
  return execs == 0 ? 0 : double(total) / execs;
}

}  // namespace

int main() {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }
  SetMinLogSeverity(LogSeverity::kError);

  // ~5-6 virtual minutes at the default EOF_BENCH_SCALE: long enough for thousands
  // of executions, short enough for a CI smoke run.
  VirtualDuration budget = ScaledCampaignBudget() / 32;
  printf("== Debug-link batching: FreeRTOS, %llu virtual seconds ==\n",
         static_cast<unsigned long long>(budget / kVirtualSecond));

  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = 1;
  config.budget = budget;
  config.sample_points = 24;
  EofFuzzer fuzzer(config);
  auto start = std::chrono::steady_clock::now();
  auto result = fuzzer.Run();
  double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!result.ok()) {
    fprintf(stderr, "campaign failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const CampaignResult& campaign = result.value();
  const DebugPortStats& link = campaign.link;
  // Per-op pricing: each batch's round trip becomes one round trip per carried op.
  uint64_t per_op_transactions = link.transactions - link.batches + link.batched_ops;
  double batched_per_exec = PerExec(link.transactions, campaign.execs);
  double per_op_per_exec = PerExec(per_op_transactions, campaign.execs);
  double vtime_per_exec_us = PerExec(campaign.elapsed, campaign.execs);

  printf("%-10s %10s %14s %12s\n", "pricing", "execs", "transactions", "trans/exec");
  printf("%-10s %10llu %14llu %12.2f\n", "batched",
         static_cast<unsigned long long>(campaign.execs),
         static_cast<unsigned long long>(link.transactions), batched_per_exec);
  printf("%-10s %10llu %14llu %12.2f\n", "per_op",
         static_cast<unsigned long long>(campaign.execs),
         static_cast<unsigned long long>(per_op_transactions), per_op_per_exec);
  printf("coverage %llu, %.1f v-usec/exec\n",
         static_cast<unsigned long long>(campaign.final_coverage), vtime_per_exec_us);

  double ratio = batched_per_exec > 0 ? per_op_per_exec / batched_per_exec : 0;
  printf("transactions/exec: per_op/batched = %.2fx\n", ratio);

  // Delta-reflash probe: restore an uncorrupted deployment. Every payload partition
  // must be proven pristine by on-target checksum and skipped.
  DeployOptions deploy;
  deploy.os_name = "freertos";
  auto deployment_or = Deployment::Create(deploy);
  if (!deployment_or.ok()) {
    fprintf(stderr, "deployment failed: %s\n",
            deployment_or.status().ToString().c_str());
    return 1;
  }
  Deployment& deployment = *deployment_or.value();
  // Probe the restore through registry snapshots: Diff(before, after) isolates
  // exactly the link traffic of this one restore.
  telemetry::MetricsSnapshot before = deployment.port().registry().Snapshot();
  if (!deployment.ReflashAndReboot().ok()) {
    fprintf(stderr, "restore failed\n");
    return 1;
  }
  telemetry::MetricsSnapshot restore_delta =
      deployment.port().registry().Snapshot().Diff(before);
  DebugPortStats window = DebugPortStatsFromSnapshot(restore_delta);
  uint64_t skipped = window.flash_skipped_bytes;
  uint64_t programmed = window.flash_bytes;
  printf("no-corruption restore: %llu flash bytes skipped, %llu reprogrammed\n",
         static_cast<unsigned long long>(skipped),
         static_cast<unsigned long long>(programmed));

  FILE* json = fopen("BENCH_port_batching.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n");
    fprintf(json,
            "  \"batched\": {\"execs\": %llu, \"transactions\": %llu, \"batches\": %llu,"
            " \"batched_ops\": %llu, \"trans_per_exec\": %.4f,"
            " \"vtime_per_exec_us\": %.4f, \"coverage\": %llu, \"wall_sec\": %.3f},\n",
            static_cast<unsigned long long>(campaign.execs),
            static_cast<unsigned long long>(link.transactions),
            static_cast<unsigned long long>(link.batches),
            static_cast<unsigned long long>(link.batched_ops), batched_per_exec,
            vtime_per_exec_us, static_cast<unsigned long long>(campaign.final_coverage),
            wall_sec);
    fprintf(json,
            "  \"per_op\": {\"execs\": %llu, \"transactions\": %llu,"
            " \"trans_per_exec\": %.4f},\n",
            static_cast<unsigned long long>(campaign.execs),
            static_cast<unsigned long long>(per_op_transactions), per_op_per_exec);
    fprintf(json,
            "  \"transactions_per_exec_ratio\": %.4f,\n"
            "  \"delta_reflash\": {\"flash_skipped_bytes\": %llu,"
            " \"flash_bytes_programmed\": %llu}\n}\n",
            ratio, static_cast<unsigned long long>(skipped),
            static_cast<unsigned long long>(programmed));
    fclose(json);
    printf("wrote BENCH_port_batching.json\n");
  }

  bool ok = true;
  if (ratio < 2.0) {
    fprintf(stderr,
            "FAIL: batching saves only %.2fx transactions/exec over per-op (need 2x)\n",
            ratio);
    ok = false;
  }
  if (skipped == 0) {
    fprintf(stderr, "FAIL: delta reflash skipped nothing on a pristine restore\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
