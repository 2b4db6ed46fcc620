// Differential proof of the snapshot/restore fast path (RestoreMode::kSnapshot).
//
// The fast path is only admissible if it is indistinguishable from the reflash
// baseline everywhere except the clock: same inputs, same coverage, same deduped
// bug table — at --jobs 1 and --jobs 4 — while spending kWarmRestoreCost instead
// of the reflash+reboot tax. The suite also pins down every restore trigger
// (crash, stall, power_plateau, pc_stall, link_lost, write_failed,
// periodic_reset_failed), the severed-link and flash-damage fallbacks to the full
// ReflashAndReboot, the delta-reflash interaction, the flight-recorder lifecycle
// across warm vs. cold restores, the page-granular restore's equivalence with the
// whole-RAM rewrite it replaced, and the cold-boot validation oracle that keeps
// snapshot-only artifacts (the libriscv lesson) out of the bug table.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/agent_layout.h"
#include "src/core/board_farm.h"
#include "src/core/executor.h"
#include "src/core/fuzzer.h"
#include "src/core/scheduler.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program_text.h"
#include "src/hw/board_snapshot.h"
#include "src/os/all_oses.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/rows.h"
#include "src/telemetry/telemetry.h"

namespace eof {
namespace {

// Bug #13: flash-corrupting kernel panic — the crash class that defeats the warm
// path (the flash shadow no longer matches) and forces the reflash fallback.
constexpr char kFlashCorruptingCrasher[] = "r0 = load_partitions(0x7, 0xf)";
constexpr char kFreertosBenign[] = "r0 = load_partitions(0x1, 0x2)";

// Bug #9: pure heap-state panic, no flash damage — crashes warm-restore cleanly.
constexpr char kHeapCrasher[] =
    "r0 = rt_malloc(0xfa0)\nr1 = rt_malloc(0x7d0)\nr2 = rt_malloc(0x1001)";
constexpr char kRtthreadBenign[] = "r0 = rt_malloc(0x8)";
// The hidden-state half of Bug #9: two allocations that leave heap_used at 6000.
constexpr char kHeapPressure[] = "r0 = rt_malloc(0xfa0)\nr1 = rt_malloc(0x7d0)";
// The other half: only panics when the pressure above is already resident.
constexpr char kOddOomMalloc[] = "r0 = rt_malloc(0x1001)";

std::vector<uint8_t> LeU32(uint32_t value) {
  return {static_cast<uint8_t>(value & 0xff), static_cast<uint8_t>((value >> 8) & 0xff),
          static_cast<uint8_t>((value >> 16) & 0xff), static_cast<uint8_t>((value >> 24) & 0xff)};
}

std::string TextField(const telemetry::Event& event, const std::string& key) {
  Result<telemetry::JournalRow> row = telemetry::ParseJournalLine(event.ToJsonLine());
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  return row.ok() && row->texts.count(key) > 0 ? row->texts.at(key) : "";
}

// One board session in snapshot mode with a journaled telemetry sink, driven one
// hand-built program at a time.
class SnapshotSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void MakeExecutor(const std::string& os_name, FuzzerConfig config = FuzzerConfig()) {
    config.os_name = os_name;
    config.restore_mode = RestoreMode::kSnapshot;
    auto plan = PrepareCampaign(config);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan.value());
    config_ = config;
    telemetry_ = std::make_unique<telemetry::BoardTelemetry>(/*worker=*/0, config.seed,
                                                             &sink_);
    rng_ = std::make_unique<Rng>(config.seed ^ 0x5eedf00dULL);
    ExecutorOptions options = MakeExecutorOptions(config, plan_, config.seed);
    options.deploy.telemetry = telemetry_.get();
    auto executor = TargetExecutor::Create(options, rng_.get());
    ASSERT_TRUE(executor.ok()) << executor.status().ToString();
    executor_ = std::move(executor.value());
  }

  fuzz::Program Parse(const std::string& text) {
    auto program = fuzz::ParseProgramText(plan_.specs, text);
    EXPECT_TRUE(program.ok()) << program.status().ToString() << " in: " << text;
    return program.ok() ? std::move(program.value()) : fuzz::Program();
  }

  std::vector<uint8_t> Encode(const std::string& text) {
    fuzz::Program program = Parse(text);
    std::vector<uint8_t> encoded;
    EXPECT_TRUE(EncodeForMailbox(plan_.specs, &program, &encoded));
    return encoded;
  }

  // Executes `text` and requires the link to survive (the outcome itself may be
  // any of completed/crashed/stalled).
  ExecOutcome Run(const std::string& text) {
    auto outcome = executor_->ExecuteOne(Encode(text));
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(outcome.value()) : ExecOutcome();
  }

  std::vector<telemetry::Event> Rows(const std::string& type) const {
    std::vector<telemetry::Event> rows;
    for (const telemetry::Event& event : sink_.Events()) {
      if (event.type == type) {
        rows.push_back(event);
      }
    }
    return rows;
  }

  void CorruptKernelFlash() {
    const Partition* kernel =
        executor_->deployment().image().partition_table().Find("kernel");
    ASSERT_NE(kernel, nullptr);
    ASSERT_TRUE(
        executor_->deployment().board().FlashWrite(kernel->offset + 64, {0x00, 0x00})
            .ok());
  }

  FuzzerConfig config_;
  CampaignPlan plan_;
  telemetry::MemoryEventSink sink_;
  std::unique_ptr<telemetry::BoardTelemetry> telemetry_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<TargetExecutor> executor_;
};

// --- Per-trigger restore behaviour -----------------------------------------

TEST_F(SnapshotSessionTest, CrashRestoresWarmWithoutReboot) {
  MakeExecutor("rtthread");
  Board& board = executor_->deployment().board();
  const uint64_t boots_before = board.reset_count();

  ExecOutcome outcome = Run(kHeapCrasher);
  EXPECT_EQ(outcome.status, ExecStatus::kCrashed);
  ASSERT_TRUE(outcome.signature.has_value());
  EXPECT_EQ(outcome.signature->detector, "exception");
  ASSERT_TRUE(outcome.dump.has_value());
  EXPECT_EQ(outcome.dump->reason, "crash");
  // The dump labels the board state the crash fired ON — before any restore ran.
  EXPECT_EQ(outcome.dump->last_restore, "none");

  ExecStats stats = executor_->stats();
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.snapshot_restores, 1u);
  EXPECT_GT(stats.snapshot_bytes, 0u);
  EXPECT_EQ(stats.snapshot_bytes, executor_->snapshot_for_test()->ram_bytes());
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");
  // The reboot tax was never paid: no power cycle, one warm core restore.
  EXPECT_EQ(board.reset_count(), boots_before);
  EXPECT_EQ(board.warm_restore_count(), 1u);
  EXPECT_EQ(board.power_state(), PowerState::kRunning);

  auto resets = Rows("liveness_reset");
  ASSERT_EQ(resets.size(), 1u);
  EXPECT_EQ(TextField(resets[0], "reason"), "crash");
  EXPECT_EQ(TextField(resets[0], "restore"), "snapshot");

  // The restored board is healthy and runs the next case to completion.
  EXPECT_EQ(Run(kRtthreadBenign).status, ExecStatus::kCompleted);
  // And the restore resets kernel state: the same crasher crashes identically.
  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  EXPECT_EQ(executor_->stats().snapshot_restores, 2u);
}

TEST_F(SnapshotSessionTest, StallRestoresWarm) {
  FuzzerConfig config;
  config.watchdogs = false;  // ablation: six dead rounds, then manual intervention
  MakeExecutor("freertos", config);
  executor_->deployment().board().LatchHang("injected wedge");

  ExecOutcome outcome = Run(kFreertosBenign);
  EXPECT_EQ(outcome.status, ExecStatus::kStalled);
  ASSERT_TRUE(outcome.dump.has_value());
  EXPECT_EQ(outcome.dump->reason, "stall");
  ExecStats stats = executor_->stats();
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_EQ(stats.snapshot_restores, 1u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
}

TEST_F(SnapshotSessionTest, PcStallRestoresWarm) {
  MakeExecutor("freertos");
  executor_->deployment().board().LatchHang("injected wedge");

  ExecOutcome outcome = Run(kFreertosBenign);
  EXPECT_EQ(outcome.status, ExecStatus::kStalled);
  ASSERT_TRUE(outcome.dump.has_value());
  EXPECT_EQ(outcome.dump->reason, "pc_stall");
  EXPECT_EQ(executor_->stats().snapshot_restores, 1u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
}

TEST_F(SnapshotSessionTest, PowerPlateauRestoresWarm) {
  FuzzerConfig config;
  config.power_probe = true;
  MakeExecutor("freertos", config);
  executor_->deployment().board().LatchHang("hot loop");

  ExecOutcome outcome = Run(kFreertosBenign);
  EXPECT_EQ(outcome.status, ExecStatus::kStalled);
  ASSERT_TRUE(outcome.dump.has_value());
  EXPECT_EQ(outcome.dump->reason, "power_plateau");
  EXPECT_EQ(executor_->stats().snapshot_restores, 1u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
}

TEST_F(SnapshotSessionTest, LinkLostOnDeadCoreFallsBackToReflash) {
  MakeExecutor("freertos");
  // Kill the target behind the executor's back: corrupt the kernel partition and
  // power-cycle, so the boot ROM refuses to come up and core ops time out. This is
  // the run-control failure the in-flow "link_lost" label keys on...
  CorruptKernelFlash();
  ASSERT_TRUE(executor_->deployment().port().ResetTarget().ok());
  ASSERT_EQ(executor_->deployment().board().power_state(), PowerState::kBootFailed);
  EXPECT_EQ(executor_->deployment().port().Continue().status().code(),
            ErrorCode::kTimeout);

  // ...but with atomic link batches a dead core is always discovered at publish
  // time (memory writes need the core too), so the session reports the link loss
  // with a write_failed dump rather than dying mid-continue.
  ExecOutcome outcome = Run(kFreertosBenign);
  EXPECT_EQ(outcome.status, ExecStatus::kLinkLost);
  ASSERT_TRUE(outcome.dump.has_value());
  EXPECT_EQ(outcome.dump->reason, "write_failed");
  // The warm path cannot vouch for corrupted flash; the fallback reflash repaired it.
  ExecStats stats = executor_->stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.snapshot_restores, 0u);
  EXPECT_EQ(std::string(executor_->last_restore()), "cold");
  EXPECT_EQ(executor_->deployment().board().power_state(), PowerState::kRunning);
  auto resets = Rows("liveness_reset");
  ASSERT_EQ(resets.size(), 1u);
  EXPECT_EQ(TextField(resets[0], "restore"), "cold");
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
}

// Satellite regression: a link severed before/through the restore must never hand
// back a half-restored board. RunBatch is atomic (a severed batch applies nothing),
// so the whole restore attempt — shadow check, warm core restore, RAM write — either
// fails cleanly before touching the board or falls back to the full reflash.
TEST_F(SnapshotSessionTest, SeveredLinkMidRestoreLeavesNoHalfRestoredBoard) {
  MakeExecutor("freertos");
  Board& board = executor_->deployment().board();
  const uint64_t boots_before = board.reset_count();

  executor_->deployment().port().InjectLinkFailure(true);
  auto outcome = executor_->ExecuteOne(Encode(kFreertosBenign));
  // Publish failed, the warm path failed, and the reflash fallback failed too:
  // the error propagates (the farm parks this worker) instead of faking success.
  EXPECT_FALSE(outcome.ok());

  // The board was never half restored: no warm core restore, no power cycle, the
  // firmware still parked and intact.
  EXPECT_EQ(board.warm_restore_count(), 0u);
  EXPECT_EQ(board.reset_count(), boots_before);
  EXPECT_EQ(board.power_state(), PowerState::kRunning);
  ExecStats stats = executor_->stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.snapshot_restores, 0u);
  // The failed attempt was journaled as a write_failed dump but no liveness_reset
  // row (the restore never completed).
  auto dumps = Rows("crash_dump");
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(TextField(dumps[0], "reason"), "write_failed");
  EXPECT_EQ(Rows("liveness_reset").size(), 0u);

  // Link repaired: the untouched board keeps fuzzing with no restoration at all.
  executor_->deployment().port().InjectLinkFailure(false);
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
  EXPECT_EQ(board.warm_restore_count(), 0u);
}

// The shadow audit is write-count gated: as long as the flash controller reports
// no programming since the last audit, warm restores skip the per-partition
// checksums (one status-word read instead of re-digesting the whole image). Any
// flash write — even one that leaves the bytes identical — reopens the gate for
// exactly one full audit.
TEST_F(SnapshotSessionTest, ShadowAuditIsWriteCountGated) {
  MakeExecutor("rtthread");
  BoardSnapshot* snapshot = executor_->snapshot_for_test();
  ASSERT_NE(snapshot, nullptr);
  // Capture itself certified the image; warm restores on untouched flash never
  // re-audit.
  EXPECT_EQ(snapshot->shadow_audits(), 0u);
  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  EXPECT_EQ(executor_->stats().snapshot_restores, 1u);
  EXPECT_EQ(snapshot->shadow_audits(), 0u);

  // Rewrite a kernel word with its own pristine bytes: digests still match, but
  // the controller's write count moved, so the next restore must re-prove the
  // shadow — and, having passed, close the gate at the new count.
  Deployment& deployment = executor_->deployment();
  const Partition* kernel = deployment.image().partition_table().Find("kernel");
  ASSERT_NE(kernel, nullptr);
  auto pristine = deployment.board().flash().Read(kernel->offset + 64, 2);
  ASSERT_TRUE(pristine.ok());
  ASSERT_TRUE(deployment.board().FlashWrite(kernel->offset + 64, pristine.value()).ok());

  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  EXPECT_EQ(executor_->stats().snapshot_restores, 2u);
  EXPECT_EQ(snapshot->shadow_audits(), 1u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");

  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  EXPECT_EQ(executor_->stats().snapshot_restores, 3u);
  EXPECT_EQ(snapshot->shadow_audits(), 1u);
}

TEST_F(SnapshotSessionTest, PeriodicResetFailureFallsBackToReflashThenRecovers) {
  FuzzerConfig config;
  config.periodic_reset_execs = 1;  // every completed exec sheds state
  MakeExecutor("freertos", config);
  // Scribble on the kernel partition while the board runs: the resident firmware
  // keeps going, but the flash shadow no longer matches the snapshot's digests.
  CorruptKernelFlash();

  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
  // The periodic warm restore refused the mismatched flash and fell back cold.
  auto dumps = Rows("crash_dump");
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(TextField(dumps[0], "reason"), "periodic_reset_failed");
  ExecStats stats = executor_->stats();
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.snapshot_restores, 0u);
  EXPECT_EQ(std::string(executor_->last_restore()), "cold");
  auto resets = Rows("liveness_reset");
  ASSERT_EQ(resets.size(), 1u);
  EXPECT_EQ(TextField(resets[0], "reason"), "periodic_reset_failed");
  EXPECT_EQ(TextField(resets[0], "restore"), "cold");

  // The fallback reflash repaired the flash, so the digests match again and the
  // next periodic reset rides the warm path.
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
  EXPECT_EQ(executor_->stats().snapshot_restores, 1u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");
}

// --- Delta-reflash interaction (satellite) ----------------------------------

// Alternating warm restores and (flash-damage-forced) reflashes must keep the
// delta-reflash cache honest: clean partitions stay skipped, the damaged one is
// reprogrammed, and the repaired flash revalidates against the snapshot's shadow.
TEST_F(SnapshotSessionTest, WarmRestoresKeepDeltaReflashCacheValid) {
  FuzzerConfig config;
  config.periodic_reset_execs = 1;
  MakeExecutor("freertos", config);
  const DebugPortStats after_deploy = executor_->port_stats();

  // Warm periodic restore: no flash traffic at all.
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
  DebugPortStats after_warm = executor_->port_stats();
  EXPECT_EQ(after_warm.flash_bytes, after_deploy.flash_bytes);
  EXPECT_EQ(after_warm.flash_skipped_bytes, after_deploy.flash_skipped_bytes);
  EXPECT_EQ(executor_->stats().snapshot_restores, 1u);

  // Bug #13 corrupts the on-flash partition table; the warm path refuses the
  // board and the delta reflash reprograms ONLY the damaged partition.
  ExecOutcome crash = Run(kFlashCorruptingCrasher);
  EXPECT_EQ(crash.status, ExecStatus::kCrashed);
  DebugPortStats after_reflash = executor_->port_stats();
  EXPECT_EQ(std::string(executor_->last_restore()), "cold");
  const uint64_t programmed = after_reflash.flash_bytes - after_warm.flash_bytes;
  const uint64_t skipped =
      after_reflash.flash_skipped_bytes - after_warm.flash_skipped_bytes;
  EXPECT_GT(programmed, 0u);  // the damaged partition was rewritten
  EXPECT_GT(skipped, 0u);     // the clean partitions were proven clean and skipped
  EXPECT_GT(skipped, programmed);  // ptable is tiny next to bootloader+kernel

  // Repaired flash matches the shadow again: back on the warm path, still no
  // flash traffic — the snapshot restores did not poison the payload cache.
  EXPECT_EQ(Run(kFreertosBenign).status, ExecStatus::kCompleted);
  DebugPortStats after_second_warm = executor_->port_stats();
  EXPECT_EQ(after_second_warm.flash_bytes, after_reflash.flash_bytes);
  EXPECT_EQ(after_second_warm.flash_skipped_bytes, after_reflash.flash_skipped_bytes);
  EXPECT_EQ(executor_->stats().snapshot_restores, 2u);
  EXPECT_EQ(std::string(executor_->last_restore()), "snapshot");

  // Second round of damage: the cache still skips exactly the clean partitions.
  EXPECT_EQ(Run(kFlashCorruptingCrasher).status, ExecStatus::kCrashed);
  DebugPortStats after_third = executor_->port_stats();
  EXPECT_EQ(after_third.flash_bytes - after_second_warm.flash_bytes, programmed);
  EXPECT_EQ(after_third.flash_skipped_bytes - after_second_warm.flash_skipped_bytes,
            skipped);
}

// --- Flight recorder lifecycle (satellite) ----------------------------------

TEST_F(SnapshotSessionTest, FlightRingsSurviveWarmRestoresAndResetOnColdBoot) {
  MakeExecutor("rtthread");

  EXPECT_EQ(Run(kRtthreadBenign).status, ExecStatus::kCompleted);
  const uint64_t seen_benign = executor_->flight_recorder().port_ops_seen();
  EXPECT_GT(seen_benign, 0u);

  // Warm restore: the board session continues, so the rings keep accumulating.
  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  const uint64_t seen_first_crash = executor_->flight_recorder().port_ops_seen();
  EXPECT_GT(seen_first_crash, seen_benign);

  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  const uint64_t seen_second_crash = executor_->flight_recorder().port_ops_seen();
  EXPECT_GT(seen_second_crash, seen_first_crash);

  // The crash_dump rows label the restore mode that produced the crashing state:
  // first crash on the freshly deployed board, second on a warm-restored one.
  auto dumps = Rows("crash_dump");
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(TextField(dumps[0], "reason"), "crash");
  EXPECT_EQ(TextField(dumps[0], "last_restore"), "none");
  EXPECT_EQ(TextField(dumps[1], "last_restore"), "snapshot");

  // Flash damage forces the cold fallback: a cold boot wipes the board-session
  // context the rings describe, so they restart from (nearly) empty.
  CorruptKernelFlash();
  EXPECT_EQ(Run(kHeapCrasher).status, ExecStatus::kCrashed);
  EXPECT_EQ(std::string(executor_->last_restore()), "cold");
  EXPECT_LT(executor_->flight_recorder().port_ops_seen(), seen_second_crash);
  dumps = Rows("crash_dump");
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_EQ(TextField(dumps[2], "last_restore"), "snapshot");
}

// --- Page-granular restore equivalence ---------------------------------------

// The link ledger of a run of warm restores, pinned from the implementation that
// rewrote all of RAM on the host: the page-granular restore must charge and record
// exactly the same.
struct RestoreLedger {
  const char* os;
  uint64_t transactions;
  uint64_t batches;
  uint64_t batched_ops;
  uint64_t bytes_written;
  uint64_t flight_ops_seen;
  uint64_t flight_digest;  // FNV-1a over the flight ring's port-op records
  VirtualTime elapsed;
};

void PrintTo(const RestoreLedger& ledger, std::ostream* out) { *out << ledger.os; }

class RestoreEquivalenceTest : public SnapshotSessionTest,
                               public ::testing::WithParamInterface<RestoreLedger> {};

// Random execs, each followed by a warm restore (periodic, crash or stall): after
// every one, RAM equals the RAM the snapshot was captured from, byte for byte, and
// the dirty bitmap still covers every non-zero page.
TEST_P(RestoreEquivalenceTest, WarmRestoresReproduceCapturedRam) {
  const RestoreLedger& pinned = GetParam();
  FuzzerConfig config;
  config.periodic_reset_execs = 1;
  MakeExecutor(pinned.os, config);
  Board& board = executor_->deployment().board();
  const uint64_t ram_bytes = board.spec().ram_bytes;
  std::vector<uint8_t> captured;
  ASSERT_TRUE(board.RamReadInto(0, ram_bytes, &captured).ok());

  const RamPages& pages = executor_->snapshot_for_test()->ram();
  ASSERT_EQ(pages.Expand(), captured);
  EXPECT_LT(pages.pages.size(), ram_bytes / kRamPageBytes / 4);  // RAM is mostly zero

  fuzz::Generator generator(plan_.specs, config_.gen, /*seed=*/7);
  for (int exec = 0; exec < 40; ++exec) {
    fuzz::Program program = generator.Generate();
    std::vector<uint8_t> encoded;
    ASSERT_TRUE(EncodeForMailbox(plan_.specs, &program, &encoded));
    auto outcome = executor_->ExecuteOne(encoded);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(std::string(executor_->last_restore()), "snapshot") << "exec " << exec;
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(board.RamReadInto(0, ram_bytes, &bytes).ok());
    ASSERT_EQ(bytes, captured) << "exec " << exec;
    for (uint64_t page = 0; page * kRamPageBytes < ram_bytes; ++page) {
      if (!board.RamPageDirty(page)) {
        ASSERT_TRUE(board.RamReadInto(page * kRamPageBytes, kRamPageBytes, &bytes).ok());
        ASSERT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; }))
            << "clean page " << page << " holds data after exec " << exec;
      }
    }
  }

  DebugPortStats link = executor_->port_stats();
  EXPECT_EQ(link.transactions, pinned.transactions);
  EXPECT_EQ(link.batches, pinned.batches);
  EXPECT_EQ(link.batched_ops, pinned.batched_ops);
  EXPECT_EQ(link.bytes_written, pinned.bytes_written);
  DebugPort& port = executor_->deployment().port();
  telemetry::FlightDump dump = port.flight_recorder()->Dump("equivalence", port.Now());
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto fold = [&digest](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const telemetry::PortOpRecord& record : dump.port_ops) {
    fold(record.at);
    fold(static_cast<uint64_t>(record.op));
    fold(record.address);
    fold(record.size);
    fold(record.ok ? 1 : 0);
  }
  EXPECT_EQ(dump.port_ops_seen, pinned.flight_ops_seen);
  EXPECT_EQ(digest, pinned.flight_digest);
  EXPECT_EQ(executor_->Elapsed(), pinned.elapsed);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedLedgers, RestoreEquivalenceTest,
    ::testing::Values(RestoreLedger{"rtthread", 383, 202, 1219, 41949734, 1330,
                                    3408671007196890713ULL, 15491983},
                      RestoreLedger{"freertos", 386, 202, 932, 21308015, 1053,
                                    9645746209666748793ULL, 24457473}),
    [](const ::testing::TestParamInfo<RestoreLedger>& info) {
      return std::string(info.param.os);
    });

// --- Cold-boot validation oracle --------------------------------------------

// Campaign-state harness: executor + scheduler wired the way EofFuzzer wires them,
// including the snapshot-mode validation oracle.
class SnapshotValidationTest : public SnapshotSessionTest {
 protected:
  void MakeScheduler() {
    scheduler_options_ = MakeSchedulerOptions(config_, /*workers=*/1,
                                              std::make_shared<const CampaignPlan>(plan_));
    scheduler_options_.sink = &sink_;
    ASSERT_TRUE(scheduler_options_.validator != nullptr);  // kSnapshot installs it
    scheduler_ = std::make_unique<CampaignScheduler>(plan_.specs, scheduler_options_);
    generator_ = std::make_unique<fuzz::Generator>(plan_.specs, config_.gen, config_.seed);
  }

  void Submit(const std::string& text, const ExecOutcome& outcome) {
    fuzz::Program program = Parse(text);
    scheduler_->OnOutcome(program, outcome, *generator_, executor_->Elapsed(),
                          /*worker=*/0);
  }

  CampaignScheduler::Options scheduler_options_;
  std::unique_ptr<CampaignScheduler> scheduler_;
  std::unique_ptr<fuzz::Generator> generator_;
};

// The libriscv lesson, end to end: plant hidden kernel state in the snapshot so
// every warm restore replays it, crash on that state, and watch the oracle refuse
// the sighting because a freshly flashed board does not reproduce it.
TEST_F(SnapshotValidationTest, PoisonedSnapshotSightingIsRejected) {
  FuzzerConfig config;
  config.os_name = "rtthread";
  config.periodic_reset_execs = 1;
  MakeExecutor("rtthread", config);
  MakeScheduler();

  // Poison the captured RAM: a pre-loaded mailbox program the agent will consume
  // during every warm-resume handshake, leaving heap_used at 6000 — state a cold
  // boot never has.
  std::vector<uint8_t> poison = Encode(kHeapPressure);
  ASSERT_FALSE(poison.empty());
  BoardSnapshot* snapshot = executor_->snapshot_for_test();
  ASSERT_TRUE(snapshot
                  ->PokeRamForTest(kMailboxOffset + kMailboxLenOffset,
                                   LeU32(static_cast<uint32_t>(poison.size())))
                  .ok());
  ASSERT_TRUE(snapshot->PokeRamForTest(kMailboxOffset + kMailboxDataOffset, poison).ok());
  ASSERT_TRUE(snapshot->PokeRamForTest(kMailboxOffset + kMailboxFlagOffset, LeU32(1)).ok());

  // A completed exec triggers the periodic warm restore, which replays the poison.
  EXPECT_EQ(Run(kRtthreadBenign).status, ExecStatus::kCompleted);
  ASSERT_GE(executor_->stats().snapshot_restores, 1u);

  // On the poisoned heap, a single odd-size allocation panics (Bug #9)...
  ExecOutcome crash = Run(kOddOomMalloc);
  ASSERT_EQ(crash.status, ExecStatus::kCrashed);
  ASSERT_TRUE(crash.signature.has_value());

  // ...but the oracle replays `r0 = rt_malloc(0x1001)` on a freshly flashed board,
  // where it completes quietly — the sighting is an artifact, not a bug.
  Submit(kOddOomMalloc, crash);
  telemetry::MetricsSnapshot view = scheduler_->Snapshot();
  EXPECT_EQ(view.CounterValue("campaign.bugs"), 0u);
  EXPECT_EQ(view.CounterValue("campaign.bugs_rejected"), 1u);
  std::vector<BugReport> rejected = scheduler_->RejectedBugs();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].catalog_id, 9);
  EXPECT_EQ(rejected[0].snapshot_validation, "rejected");

  // The provenance row is journaled with the verdict; no "bug" event exists.
  auto reports = Rows("bug_report");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(TextField(reports[0], "snapshot_validation"), "rejected");
  EXPECT_EQ(Rows("bug").size(), 0u);

  // A re-trigger of the same artifact dedups against the rejected table instead
  // of burning another validation replay.
  EXPECT_EQ(Run(kRtthreadBenign).status, ExecStatus::kCompleted);
  ExecOutcome again = Run(kOddOomMalloc);
  ASSERT_EQ(again.status, ExecStatus::kCrashed);
  Submit(kOddOomMalloc, again);
  EXPECT_EQ(scheduler_->Snapshot().CounterValue("campaign.bugs_rejected"), 1u);
  EXPECT_EQ(Rows("bug_report").size(), 1u);
  EXPECT_EQ(Rows("bug_dedup").size(), 1u);

  CampaignResult result = scheduler_->Finalize(executor_->stats(),
                                               executor_->Elapsed(),
                                               executor_->port_stats());
  EXPECT_TRUE(result.bugs.empty());
  EXPECT_EQ(result.bugs_rejected, 1u);
}

TEST_F(SnapshotValidationTest, ColdReproducibleCrashIsConfirmed) {
  FuzzerConfig config;
  config.os_name = "rtthread";
  MakeExecutor("rtthread", config);
  MakeScheduler();

  // The genuine Bug #9 reproducer carries its own heap pressure, so it crashes a
  // freshly flashed board too — the oracle confirms it.
  ExecOutcome crash = Run(kHeapCrasher);
  ASSERT_EQ(crash.status, ExecStatus::kCrashed);
  Submit(kHeapCrasher, crash);

  telemetry::MetricsSnapshot view = scheduler_->Snapshot();
  EXPECT_EQ(view.CounterValue("campaign.bugs"), 1u);
  EXPECT_EQ(view.CounterValue("campaign.bugs_rejected"), 0u);
  CampaignResult result = scheduler_->Finalize(executor_->stats(),
                                               executor_->Elapsed(),
                                               executor_->port_stats());
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_EQ(result.bugs[0].catalog_id, 9);
  EXPECT_EQ(result.bugs[0].snapshot_validation, "confirmed");
  EXPECT_EQ(result.bugs_rejected, 0u);
  EXPECT_EQ(Rows("bug").size(), 1u);
  auto reports = Rows("bug_report");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(TextField(reports[0], "snapshot_validation"), "confirmed");
}

// Bugs are confirmed on the image the campaign fuzzes: a validator that dropped the
// instrumentation options would replay an uninstrumented campaign's sightings on a
// fully instrumented board.
TEST(ColdBootDeployTest, CarriesTheCampaignsInstrumentation) {
  FuzzerConfig config;
  config.os_name = "rtthread";
  config.board_name = "stm32f407-disco";
  config.seed = 3007;
  config.instrumentation.enabled = false;
  config.instrumentation.module_filter = {"apps/http"};
  config.instrumentation.semihost = true;
  DeployOptions deploy = ColdBootDeployOptions(config, CampaignPlan{}, config.seed);
  EXPECT_EQ(deploy.os_name, "rtthread");
  EXPECT_EQ(deploy.board_name, "stm32f407-disco");
  EXPECT_FALSE(deploy.instrumentation.enabled);
  EXPECT_EQ(deploy.instrumentation.module_filter, config.instrumentation.module_filter);
  EXPECT_TRUE(deploy.instrumentation.semihost);
  EXPECT_EQ(deploy.seed, 3007u);
}

// One image per campaign: the plan builds board 0's image, board 0's session deploys
// it, and the validator replays board 0's sightings on it. A sighting from another
// board replays on the image of that board's own stream.
TEST(ColdBootDeployTest, ValidatorAndBoardZeroShareThePlansImage) {
  ASSERT_TRUE(RegisterAllOses().ok());
  FuzzerConfig config;
  config.os_name = "rtthread";
  config.restore_mode = RestoreMode::kSnapshot;
  config.seed = 7;
  Result<CampaignPlan> plan = PrepareCampaign(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->image, nullptr);

  telemetry::MemoryEventSink sink;
  telemetry::BoardTelemetry board(/*worker=*/0, config.seed, &sink);
  Result<FarmSession> session = MakeFarmSession(config, *plan, config.seed, &board);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  DeployOptions validator = ColdBootDeployOptions(config, *plan, config.seed);
  EXPECT_EQ(validator.image.get(), plan->image.get());
  EXPECT_EQ(&session->executor->deployment().image(), plan->image.get());

  const uint64_t board1 = FarmWorkerSeed(config.seed, 1);
  DeployOptions other = ColdBootDeployOptions(config, *plan, board1);
  EXPECT_EQ(other.seed, board1);
  EXPECT_EQ(other.image, nullptr);
}

// --- Differential campaigns --------------------------------------------------

class SnapshotDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  // Capped on exec count, not virtual time: both modes run the exact same input
  // sequence even though the snapshot path burns far less virtual time.
  static FuzzerConfig CappedConfig(RestoreMode mode, uint64_t seed,
                                   uint64_t max_execs) {
    FuzzerConfig config;
    config.os_name = "freertos";
    config.restore_mode = mode;
    config.seed = seed;
    config.budget = 24 * kVirtualHour;  // never the binding constraint
    config.max_execs = max_execs;
    config.sample_points = 8;
    // Seed the corpus near Bug #13 so the differential bug tables are non-empty.
    config.seed_programs = {kFlashCorruptingCrasher};
    return config;
  }

  static void ExpectSameBugTable(const CampaignResult& reflash,
                                 const CampaignResult& snapshot) {
    ASSERT_EQ(reflash.bugs.size(), snapshot.bugs.size());
    for (size_t i = 0; i < reflash.bugs.size(); ++i) {
      SCOPED_TRACE(reflash.bugs[i].program_text);
      EXPECT_EQ(reflash.bugs[i].catalog_id, snapshot.bugs[i].catalog_id);
      EXPECT_EQ(reflash.bugs[i].detector, snapshot.bugs[i].detector);
      EXPECT_EQ(reflash.bugs[i].kind, snapshot.bugs[i].kind);
      EXPECT_EQ(reflash.bugs[i].excerpt, snapshot.bugs[i].excerpt);
      EXPECT_EQ(reflash.bugs[i].program_text, snapshot.bugs[i].program_text);
      EXPECT_EQ(reflash.bugs[i].first_exec, snapshot.bugs[i].first_exec);
      EXPECT_EQ(reflash.bugs[i].board, snapshot.bugs[i].board);
      EXPECT_EQ(reflash.bugs[i].seed_stream, snapshot.bugs[i].seed_stream);
      EXPECT_EQ(reflash.bugs[i].coverage_delta, snapshot.bugs[i].coverage_delta);
      // The validation column is the one deliberate difference.
      EXPECT_EQ(reflash.bugs[i].snapshot_validation, "not_checked");
      EXPECT_EQ(snapshot.bugs[i].snapshot_validation, "confirmed");
    }
  }
};

TEST_F(SnapshotDifferentialTest, SnapshotCampaignBitMatchesReflashJobs1) {
  constexpr uint64_t kSeed = 11;
  constexpr uint64_t kExecs = 350;
  auto reflash = EofFuzzer(CappedConfig(RestoreMode::kReflash, kSeed, kExecs)).Run();
  auto snapshot = EofFuzzer(CappedConfig(RestoreMode::kSnapshot, kSeed, kExecs)).Run();
  ASSERT_TRUE(reflash.ok()) << reflash.status().ToString();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // Identical campaign: same execs, same coverage, same corpus, same crash and
  // restore counts, same deduped bug table.
  EXPECT_EQ(reflash->execs, kExecs);
  EXPECT_EQ(snapshot->execs, kExecs);
  EXPECT_EQ(reflash->final_coverage, snapshot->final_coverage);
  EXPECT_EQ(reflash->corpus_size, snapshot->corpus_size);
  EXPECT_EQ(reflash->crashes, snapshot->crashes);
  EXPECT_EQ(reflash->stalls, snapshot->stalls);
  EXPECT_EQ(reflash->timeouts, snapshot->timeouts);
  EXPECT_EQ(reflash->restores, snapshot->restores);
  EXPECT_EQ(reflash->rejected, snapshot->rejected);
  ASSERT_FALSE(snapshot->bugs.empty());  // the differential must prove something
  ExpectSameBugTable(*reflash, *snapshot);
  EXPECT_EQ(snapshot->bugs_rejected, 0u);

  // Only the snapshot campaign rode the warm path — and killed the reboot tax.
  EXPECT_EQ(reflash->snapshot_restores, 0u);
  EXPECT_GT(snapshot->snapshot_restores, 0u);
  EXPECT_GT(snapshot->snapshot_bytes, 0u);
  EXPECT_LT(snapshot->elapsed, reflash->elapsed);
}

TEST_F(SnapshotDifferentialTest, SnapshotCampaignMatchesReflashJobs4) {
  constexpr uint64_t kSeed = 5;
  constexpr uint64_t kExecsPerWorker = 120;
  // Feedback off: each worker's input stream is then a pure function of its seed,
  // so farm results are interleaving-independent and the modes comparable.
  FuzzerConfig reflash_config =
      CappedConfig(RestoreMode::kReflash, kSeed, kExecsPerWorker);
  FuzzerConfig snapshot_config =
      CappedConfig(RestoreMode::kSnapshot, kSeed, kExecsPerWorker);
  reflash_config.coverage_feedback = false;
  snapshot_config.coverage_feedback = false;

  auto reflash = BoardFarm(reflash_config, /*jobs=*/4).Run();
  auto snapshot = BoardFarm(snapshot_config, /*jobs=*/4).Run();
  ASSERT_TRUE(reflash.ok()) << reflash.status().ToString();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  EXPECT_EQ(reflash->execs, 4 * kExecsPerWorker);
  EXPECT_EQ(snapshot->execs, 4 * kExecsPerWorker);
  EXPECT_EQ(reflash->final_coverage, snapshot->final_coverage);
  EXPECT_EQ(reflash->crashes, snapshot->crashes);
  EXPECT_EQ(reflash->stalls, snapshot->stalls);
  EXPECT_EQ(reflash->timeouts, snapshot->timeouts);
  EXPECT_EQ(reflash->restores, snapshot->restores);

  // Bug identity is worker-timing-independent only as a set: first-sighting
  // attribution may land on a different worker across runs.
  auto ids = [](const CampaignResult& result) {
    std::vector<int> ids;
    for (const BugReport& bug : result.bugs) {
      ids.push_back(bug.catalog_id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids(*reflash), ids(*snapshot));
  for (const BugReport& bug : snapshot->bugs) {
    EXPECT_EQ(bug.snapshot_validation, "confirmed") << bug.program_text;
  }
  EXPECT_EQ(snapshot->bugs_rejected, 0u);
  EXPECT_EQ(reflash->snapshot_restores, 0u);
  EXPECT_GT(snapshot->snapshot_restores, 0u);
}

}  // namespace
}  // namespace eof
