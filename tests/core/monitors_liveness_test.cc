// Tests of the bug monitors (§4.5.2) and the Algorithm-1 liveness machinery, including
// link-fault injection against a live deployment.

#include <gtest/gtest.h>

#include "src/core/campaign.h"
#include "src/core/deployment.h"
#include "src/core/liveness.h"
#include "src/core/monitors.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

TEST(LogMonitorTest, MatchesCrashVocabulary) {
  LogMonitor monitor;
  const char* panics[] = {
      "BUG: kernel panic - rt_mp_alloc: suspend list head corrupt",
      "Guru Meditation Error: Core 0 panic'ed (LoadProhibited)",
      "FATAL EXCEPTION: divide fault in z_impl_k_msgq_get (msg_size=0)",
      "up_assert: PANIC! null deref in clock_getres (clockid=6)",
  };
  for (const char* line : panics) {
    auto hit = monitor.Scan(line);
    ASSERT_TRUE(hit.has_value()) << line;
    EXPECT_EQ(hit->kind, "panic") << line;
    EXPECT_EQ(hit->detector, "log");
  }
  auto assertion = monitor.Scan("(object != RT_NULL) assertion failed at rt_object_get_type");
  ASSERT_TRUE(assertion.has_value());
  EXPECT_EQ(assertion->kind, "assertion");

  EXPECT_FALSE(monitor.Scan("").has_value());
  EXPECT_FALSE(monitor.Scan("[sal] socket created: domain=2 type=1 proto=0").has_value());
  EXPECT_FALSE(monitor.Scan("FreeRTOS v10.5 scheduler started").has_value());
}

// One line per alternative of the default vocabulary, then lines that carry none.
TEST(LogMonitorTest, VocabularyTable) {
  struct Row {
    const char* line;
    const char* kind;  // nullptr = no match
  };
  const Row rows[] = {
      {"BUG: kernel panic - rt_mp_alloc", "panic"},
      {"BUG: unexpected stop at 0x4000", "panic"},
      {"Guru Meditation Error: Core 0 panic'ed", "panic"},
      {"FATAL EXCEPTION: divide fault", "panic"},
      {"FATAL: k_heap_init: first chunk header written at -4", "panic"},
      {"up_assert: PANIC! null deref", "panic"},
      {"Kernel panic - not syncing", "panic"},
      {"(obj != NULL) assertion failed at rt_object_init", "assertion"},
      {"Assertion failed: count >= 0", "assertion"},
      {"ASSERT at sem.c:50", "assertion"},
      {"DEBUGASSERT(sem->semcount < SEM_VALUE_MAX)", "assertion"},
      // A line carrying two entries reports the earlier one in vocabulary order.
      {"ASSERT then FATAL: both", "panic"},
      {"kernel panic", nullptr},  // lower case "kernel panic" is not a banner
      {"fatal: lower case", nullptr},
      {"assert(x) passed", nullptr},
      {"Guru Meditation", nullptr},
      {"BUG: kernel pani", nullptr},
      {"", nullptr},
  };
  LogMonitor monitor;
  for (const Row& row : rows) {
    auto hit = monitor.Scan(row.line);
    if (row.kind == nullptr) {
      EXPECT_FALSE(hit.has_value()) << row.line;
      continue;
    }
    ASSERT_TRUE(hit.has_value()) << row.line;
    EXPECT_EQ(hit->kind, row.kind) << row.line;
    EXPECT_EQ(hit->detector, "log");
    EXPECT_EQ(hit->excerpt, row.line);
  }
  // The excerpt is the first matching line of multi-line text, not the whole text.
  auto hit = monitor.Scan("boot ok\nthread 3 up\nFATAL: bad\nASSERT later\n");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->excerpt, "FATAL: bad");
  EXPECT_EQ(hit->kind, "panic");
}

class LivenessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void SetUp() override {
    DeployOptions options;
    options.os_name = "freertos";
    auto deployment = Deployment::Create(options);
    ASSERT_TRUE(deployment.ok());
    deployment_ = std::move(deployment.value());
  }

  std::unique_ptr<Deployment> deployment_;
};

TEST_F(LivenessTest, AliveTargetPassesChecks) {
  LivenessWatchdog watchdog;
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kAlive);  // first sample
  (void)deployment_->port().Continue();  // burn cycles; PC moves
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kAlive);
}

TEST_F(LivenessTest, SeveredLinkIsConnectionTimeout) {
  LivenessWatchdog watchdog;
  deployment_->port().InjectLinkFailure(true);
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kConnectionTimeout);
  deployment_->port().InjectLinkFailure(false);
  // Watchdog recovers its PC history after restoration.
  watchdog.Reset();
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kAlive);
}

TEST_F(LivenessTest, FaultedTargetStallsPc) {
  deployment_->board().LatchFault(0x5000, "injected");
  LivenessWatchdog watchdog;
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kAlive);  // records PC
  (void)deployment_->port().Continue();  // frozen core: PC does not move
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kPcStall);

  // StateRestoration brings it back (Algorithm 1 lines 12-19).
  ASSERT_TRUE(StateRestoration(*deployment_).ok());
  EXPECT_EQ(deployment_->board().power_state(), PowerState::kRunning);
}

TEST_F(LivenessTest, BootFailureAfterFlashCorruptionNeedsReflash) {
  // Scribble on the kernel partition behind the boot ROM's back.
  const Partition* kernel = deployment_->image().partition_table().Find("kernel");
  ASSERT_NE(kernel, nullptr);
  ASSERT_TRUE(deployment_->board().FlashWrite(kernel->offset + 64, {0x00, 0x00}).ok());
  ASSERT_TRUE(deployment_->port().ResetTarget().ok());
  EXPECT_EQ(deployment_->board().power_state(), PowerState::kBootFailed);

  LivenessWatchdog watchdog;
  EXPECT_EQ(watchdog.Check(deployment_->port()), LivenessVerdict::kConnectionTimeout);
  ASSERT_TRUE(StateRestoration(*deployment_).ok());
  EXPECT_EQ(deployment_->board().power_state(), PowerState::kRunning);
}

TEST(CampaignTest, RepeatedRunsAreSeededAndDeterministic) {
  ASSERT_TRUE(RegisterAllOses().ok());
  FuzzerConfig config;
  config.os_name = "pokos";
  config.seed = 7;
  config.budget = 3 * kVirtualMinute;
  config.sample_points = 6;
  auto first = RunRepeated(config, 2);
  auto second = RunRepeated(config, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.value().runs.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(first.value().runs[i].final_coverage, second.value().runs[i].final_coverage);
    EXPECT_EQ(first.value().runs[i].execs, second.value().runs[i].execs);
  }
  // Different seeds across repetitions actually differ.
  EXPECT_NE(first.value().runs[0].execs, 0u);

  SeriesBand band = first.value().Band();
  ASSERT_EQ(band.time.size(), 6u);
  for (size_t i = 0; i < band.time.size(); ++i) {
    EXPECT_LE(band.min[i], band.mean[i]);
    EXPECT_LE(band.mean[i], band.max[i]);
  }
}

}  // namespace
}  // namespace eof
