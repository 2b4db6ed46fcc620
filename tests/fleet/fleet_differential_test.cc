// Fleet differential test: the sharded-service contract. An orchestrator plus
// one worker over loopback must produce bit-identical campaign truths to the
// in-process farm at --jobs 1 — same execs, same coverage, same corpus
// programs, same bug table down to the flight-recorder text. The worker's
// sync pump, the wire codecs, and the orchestrator's merge path all sit
// between the two runs, so any nondeterminism or lossy encoding fails here.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/board_farm.h"
#include "src/core/fuzzer.h"
#include "src/fleet/fleet_config.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/os/all_oses.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/report.h"

namespace eof {
namespace fleet {
namespace {

class FleetDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }
};

FuzzerConfig DiffConfig(const std::string& os_name, uint64_t seed) {
  FuzzerConfig config;
  config.os_name = os_name;
  config.seed = seed;
  config.budget = 2 * kVirtualMinute;
  config.sample_points = 6;
  config.export_corpus = true;
  return config;
}

void ExpectSameBug(const BugWire& fleet_bug, const BugWire& local_bug) {
  EXPECT_EQ(fleet_bug.catalog_id, local_bug.catalog_id);
  EXPECT_EQ(fleet_bug.detector, local_bug.detector);
  EXPECT_EQ(fleet_bug.kind, local_bug.kind);
  EXPECT_EQ(fleet_bug.excerpt, local_bug.excerpt);
  EXPECT_EQ(fleet_bug.program_text, local_bug.program_text);
  EXPECT_EQ(fleet_bug.at_us, local_bug.at_us);
  EXPECT_EQ(fleet_bug.first_exec, local_bug.first_exec);
  EXPECT_EQ(fleet_bug.board, local_bug.board);
  EXPECT_EQ(fleet_bug.seed_stream, local_bug.seed_stream);
  EXPECT_EQ(fleet_bug.coverage_delta, local_bug.coverage_delta);
  EXPECT_EQ(fleet_bug.snapshot_validation, local_bug.snapshot_validation);
  EXPECT_EQ(fleet_bug.dump_reason, local_bug.dump_reason);
  EXPECT_EQ(fleet_bug.dump_last_restore, local_bug.dump_last_restore);
  EXPECT_EQ(fleet_bug.uart_tail, local_bug.uart_tail);
  EXPECT_EQ(fleet_bug.port_ops, local_bug.port_ops);
  EXPECT_EQ(fleet_bug.events, local_bug.events);
}

void RunDifferential(const std::string& os_name, uint64_t seed,
                     void (*adjust)(FuzzerConfig*) = nullptr) {
  SCOPED_TRACE(os_name + " seed " + std::to_string(seed));
  FuzzerConfig config = DiffConfig(os_name, seed);
  if (adjust != nullptr) {
    adjust(&config);
  }

  // In-process truth: one-board farm.
  BoardFarm farm(config, /*jobs=*/1);
  auto local = farm.Run();
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  // Fleet run: orchestrator + one worker, one shard, over loopback.
  telemetry::MemoryEventSink orch_sink;
  Orchestrator::Options options;
  options.sink = &orch_sink;
  auto orchestrator = Orchestrator::Create(std::move(options));
  ASSERT_TRUE(orchestrator.ok());
  FleetCampaignSpec spec;
  spec.campaign_id = "diff";
  spec.config = config;
  spec.shards = 1;
  ASSERT_TRUE(orchestrator.value()->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler(
      [&] { orchestrator.value()->ServeConnection(server.get()); });

  telemetry::MemoryEventSink worker_sink;
  FleetWorker::Options worker_options;
  worker_options.name = "w0";
  worker_options.capacity = 1;
  worker_options.sink = &worker_sink;
  auto worker = FleetWorker::Create(std::move(worker_options));
  ASSERT_TRUE(worker.ok());
  Status ran = worker.value()->Run(client.get());
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  handler.join();

  auto results = orchestrator.value()->Results();
  ASSERT_EQ(results.size(), 1u);
  const CampaignResult& fleet_result = results[0].result;
  const CampaignResult& local_result = local.value();

  // Scalar truths, bit for bit.
  EXPECT_EQ(fleet_result.execs, local_result.execs);
  EXPECT_EQ(fleet_result.final_coverage, local_result.final_coverage);
  EXPECT_EQ(fleet_result.crashes, local_result.crashes);
  EXPECT_EQ(fleet_result.rejected, local_result.rejected);
  EXPECT_EQ(fleet_result.stalls, local_result.stalls);
  EXPECT_EQ(fleet_result.timeouts, local_result.timeouts);
  EXPECT_EQ(fleet_result.restores, local_result.restores);
  EXPECT_EQ(fleet_result.snapshot_restores, local_result.snapshot_restores);
  EXPECT_EQ(fleet_result.corpus_size, local_result.corpus_size);
  EXPECT_EQ(fleet_result.elapsed, local_result.elapsed);
  EXPECT_EQ(fleet_result.bugs_rejected, local_result.bugs_rejected);
  EXPECT_EQ(fleet_result.link.transactions, local_result.link.transactions);
  EXPECT_EQ(fleet_result.link.bytes_read, local_result.link.bytes_read);
  EXPECT_EQ(fleet_result.link.bytes_written, local_result.link.bytes_written);
  EXPECT_EQ(fleet_result.link.flash_bytes, local_result.link.flash_bytes);
  EXPECT_EQ(fleet_result.snapshot_bytes, local_result.snapshot_bytes);
  EXPECT_EQ(fleet_result.trim_removed_calls, local_result.trim_removed_calls);
  EXPECT_EQ(fleet_result.trim_kept_calls, local_result.trim_kept_calls);
  EXPECT_EQ(fleet_result.journal_dropped, local_result.journal_dropped);
  EXPECT_EQ(fleet_result.link.batches, local_result.link.batches);
  EXPECT_EQ(fleet_result.link.batched_ops, local_result.link.batched_ops);
  EXPECT_EQ(fleet_result.link.timeouts, local_result.link.timeouts);
  EXPECT_EQ(fleet_result.link.flash_skipped_bytes, local_result.link.flash_skipped_bytes);
  EXPECT_EQ(fleet_result.link.resets, local_result.link.resets);
  EXPECT_EQ(fleet_result.link.warm_restores, local_result.link.warm_restores);

  // Coverage series, sampled at identical virtual instants.
  ASSERT_EQ(fleet_result.series.size(), local_result.series.size());
  for (size_t i = 0; i < local_result.series.size(); ++i) {
    EXPECT_EQ(fleet_result.series[i].time, local_result.series[i].time);
    EXPECT_EQ(fleet_result.series[i].coverage, local_result.series[i].coverage);
  }

  // Same corpus: identical programs in identical admission order.
  EXPECT_EQ(fleet_result.corpus_programs, local_result.corpus_programs);

  // Same bug table with full provenance (compare through the same wire
  // conversion the worker uses, so text renders line up exactly).
  ASSERT_EQ(results[0].bugs.size(), local_result.bugs.size());
  for (size_t i = 0; i < local_result.bugs.size(); ++i) {
    ExpectSameBug(results[0].bugs[i], ToWireBug(local_result.bugs[i]));
  }
}

TEST_F(FleetDifferentialTest, SingleWorkerMatchesInProcessZephyr) {
  RunDifferential("zephyr", 7);
}

TEST_F(FleetDifferentialTest, SingleWorkerMatchesInProcessSecondSeed) {
  RunDifferential("zephyr", 1234);
}

TEST_F(FleetDifferentialTest, SingleWorkerMatchesInProcessFreeRtos) {
  RunDifferential("freertos", 99);
}

TEST_F(FleetDifferentialTest, SingleWorkerMatchesInProcessTrimSnapshot) {
  // Trimmed, snapshot-restored: the mode counters are non-zero here, so the
  // comparison above pins every scalar, not just the always-on ones.
  auto adjust = [](FuzzerConfig* config) {
    config->trim = true;
    config->restore_mode = RestoreMode::kSnapshot;
  };
  RunDifferential("zephyr", 7, adjust);

  FuzzerConfig config = DiffConfig("zephyr", 7);
  adjust(&config);
  auto local = BoardFarm(config, /*jobs=*/1).Run();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_GT(local->snapshot_bytes, 0u);
  EXPECT_GT(local->link.warm_restores, 0u);
  EXPECT_GT(local->trim_kept_calls, 0u);
  EXPECT_GT(local->trim_removed_calls, 0u);
}

// The merged report of a one-worker fleet journal shows the same coverage
// attribution as the in-process journal of the same config: the orchestrator's
// farm rows carry the trim columns from the merged finals,
// and an exec rate from the row's campaign execs.
TEST_F(FleetDifferentialTest, FleetReportMatchesInProcessAttribution) {
  FuzzerConfig config = DiffConfig("zephyr", 3);
  config.trim = true;
  const std::string dir = ::testing::TempDir();
  const std::string local_journal = dir + "eof_fleet_attr_local.jsonl";
  const std::string orch_journal = dir + "eof_fleet_attr_orch.jsonl";
  const std::string worker_journal = dir + "eof_fleet_attr_worker.jsonl";

  FuzzerConfig local_config = config;
  local_config.metrics_out = local_journal;
  auto local = BoardFarm(local_config, /*jobs=*/1).Run();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto local_report = telemetry::LoadReportFromFile(local_journal);
  ASSERT_TRUE(local_report.ok()) << local_report.status().ToString();
  ASSERT_GT(local_report->trim_kept_calls, 0u);

  {
    Orchestrator::Options options;
    options.metrics_out = orch_journal;
    auto orchestrator = Orchestrator::Create(std::move(options));
    ASSERT_TRUE(orchestrator.ok());
    FleetCampaignSpec spec;
    spec.campaign_id = "attr";
    spec.config = config;
    ASSERT_TRUE(orchestrator.value()->AddCampaign(spec).ok());
    auto [client, server] = LoopbackPair();
    std::thread handler(
        [&] { orchestrator.value()->ServeConnection(server.get()); });
    FleetWorker::Options worker_options;
    worker_options.name = "w0";
    worker_options.metrics_out = worker_journal;
    auto worker = FleetWorker::Create(std::move(worker_options));
    ASSERT_TRUE(worker.ok());
    Status ran = worker.value()->Run(client.get());
    ASSERT_TRUE(ran.ok()) << ran.ToString();
    handler.join();
    orchestrator.value()->Results();  // journals the closing farm row
  }

  auto fleet_report =
      telemetry::LoadMergedReportFromFiles({orch_journal, worker_journal});
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status().ToString();
  EXPECT_EQ(fleet_report->trim_kept_calls, local_report->trim_kept_calls);
  EXPECT_EQ(fleet_report->trim_removed_calls, local_report->trim_removed_calls);

  auto orch_rows = telemetry::LoadMergedJournalRows({orch_journal});
  ASSERT_TRUE(orch_rows.ok()) << orch_rows.status().ToString();
  const telemetry::JournalRow* last_farm = nullptr;
  for (const telemetry::JournalRow& row : orch_rows.value()) {
    if (row.type == "farm_snapshot") {
      last_farm = &row;
    }
  }
  ASSERT_NE(last_farm, nullptr);
  EXPECT_EQ(last_farm->Uint("campaign_execs"), local->execs);
  EXPECT_GT(last_farm->Real("execs_per_vsec"), 0.0);

  remove(local_journal.c_str());
  remove(orch_journal.c_str());
  remove(worker_journal.c_str());
}

TEST_F(FleetDifferentialTest, TwoShardsTrackTwoJobFarm) {
  // At two concurrent sessions the shared-corpus interleaving is thread-timing
  // dependent (the in-process farm makes the same non-guarantee), so this
  // compares campaign-scale truths, not bits: the sharded run must complete
  // both shards and land in the same throughput regime as the 2-job farm.
  FuzzerConfig config = DiffConfig("zephyr", 7);
  BoardFarm farm(config, /*jobs=*/2);
  auto local = farm.Run();
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  telemetry::MemoryEventSink orch_sink;
  Orchestrator::Options options;
  options.sink = &orch_sink;
  auto orchestrator = Orchestrator::Create(std::move(options));
  ASSERT_TRUE(orchestrator.ok());
  FleetCampaignSpec spec;
  spec.campaign_id = "diff2";
  spec.config = config;
  spec.shards = 2;
  ASSERT_TRUE(orchestrator.value()->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler(
      [&] { orchestrator.value()->ServeConnection(server.get()); });
  telemetry::MemoryEventSink worker_sink;
  FleetWorker::Options worker_options;
  worker_options.capacity = 2;
  worker_options.sink = &worker_sink;
  auto worker = FleetWorker::Create(std::move(worker_options));
  ASSERT_TRUE(worker.ok());
  Status ran = worker.value()->Run(client.get());
  ASSERT_TRUE(ran.ok()) << ran.ToString();
  handler.join();

  EXPECT_EQ(orchestrator.value()->CompletedShards("diff2"), 2);
  auto results = orchestrator.value()->Results();
  ASSERT_EQ(results.size(), 1u);
  const CampaignResult& fleet_result = results[0].result;
  EXPECT_GT(fleet_result.execs, local->execs / 2);
  EXPECT_LT(fleet_result.execs, local->execs * 2);
  EXPECT_GT(fleet_result.final_coverage, local->final_coverage / 2);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_granted"), 2u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_reclaimed"), 0u);
}

}  // namespace
}  // namespace fleet
}  // namespace eof
