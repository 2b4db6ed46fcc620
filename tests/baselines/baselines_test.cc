// Tests of the baseline configurations and the byte-buffer fuzzer engine (GDBFuzz /
// SHIFT / GUSTAVE): configuration invariants, short-campaign progress, and the
// mode-specific coverage sources.

#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/baselines/byte_fuzzer.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }
};

TEST_F(BaselinesTest, TardisConfigMatchesItsDesign) {
  FuzzerConfig tardis = TardisConfig("rtthread", 1, kVirtualHour);
  EXPECT_EQ(tardis.board_name, "qemu-virt-arm");
  EXPECT_FALSE(tardis.use_extended_specs);
  EXPECT_FALSE(tardis.log_monitor);
  EXPECT_FALSE(tardis.exception_monitor);
  EXPECT_TRUE(tardis.coverage_feedback);  // Syzkaller-based: coverage-guided
  EXPECT_EQ(tardis.restore_mode, RestoreMode::kRebootOnly);
  EXPECT_EQ(tardis.gen.max_buffer_len, 48u);
  EXPECT_EQ(TardisConfig("pokos", 1, kVirtualHour).board_name, "qemu-virt-riscv");
}

TEST_F(BaselinesTest, EofNfOnlyDropsFeedback) {
  FuzzerConfig nf = EofNfConfig("zephyr", 1, kVirtualHour);
  EXPECT_FALSE(nf.coverage_feedback);
  EXPECT_TRUE(nf.log_monitor);
  EXPECT_TRUE(nf.exception_monitor);
  EXPECT_TRUE(nf.use_extended_specs);
  EXPECT_EQ(nf.restore_mode, RestoreMode::kReflash);
}

TEST_F(BaselinesTest, GdbFuzzObservesCoverageThroughBreakpoints) {
  ByteFuzzerConfig config;
  config.mode = ByteFuzzerMode::kGdbFuzz;
  config.entry = "json";
  config.seed = 3;
  config.budget = 20 * kVirtualMinute;
  config.sample_points = 4;
  ByteFuzzer fuzzer(config);
  auto result = fuzzer.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().execs, 50u);
  EXPECT_GT(result.value().final_coverage, 0u);  // hits observed via rotating hw bps
}

TEST_F(BaselinesTest, ShiftCollectsSemihostCoverage) {
  ByteFuzzerConfig config;
  config.mode = ByteFuzzerMode::kShift;
  config.entry = "json";
  config.seed = 3;
  config.budget = 10 * kVirtualMinute;
  config.sample_points = 4;
  ByteFuzzer fuzzer(config);
  auto result = fuzzer.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().final_coverage, 5u);
}

TEST_F(BaselinesTest, BaselinesReportPerOpLinkTraffic) {
  ByteFuzzerConfig config;
  config.mode = ByteFuzzerMode::kShift;
  config.entry = "json";
  config.seed = 3;
  config.budget = 2 * kVirtualMinute;
  config.sample_points = 4;
  ByteFuzzer fuzzer(config);
  auto result = fuzzer.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().execs, 0u);
  EXPECT_GT(result.value().link.transactions, 0u);
  // The published tools issue one command per operation: never a vectored batch.
  EXPECT_EQ(result.value().link.batches, 0u);
}

TEST_F(BaselinesTest, ShiftIsSlowerThanGdbFuzzPerExec) {
  uint64_t execs[2] = {0, 0};
  int index = 0;
  for (ByteFuzzerMode mode : {ByteFuzzerMode::kGdbFuzz, ByteFuzzerMode::kShift}) {
    ByteFuzzerConfig config;
    config.mode = mode;
    config.entry = "json";
    config.seed = 5;
    config.budget = 10 * kVirtualMinute;
    ByteFuzzer fuzzer(config);
    auto result = fuzzer.Run();
    ASSERT_TRUE(result.ok());
    execs[index++] = result.value().execs;
  }
  // Semihosting traps throttle SHIFT's execution rate.
  EXPECT_LT(execs[1], execs[0]);
}

TEST_F(BaselinesTest, GustaveDecodesTapesIntoSyscalls) {
  ByteFuzzerConfig config;
  config.mode = ByteFuzzerMode::kGustave;
  config.os_name = "pokos";
  config.seed = 9;
  config.budget = 20 * kVirtualMinute;
  ByteFuzzer fuzzer(config);
  auto result = fuzzer.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().execs, 100u);
  EXPECT_GT(result.value().final_coverage, 10u);  // TCG coverage of decoded syscalls
}

}  // namespace
}  // namespace eof
