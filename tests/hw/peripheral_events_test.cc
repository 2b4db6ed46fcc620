// Tests of the §6 extension: peripheral event injection. Events flow host → debug port →
// board queue → agent → OS interrupt handlers, with per-source ISR coverage and
// peripheral gating (a machine without the device sees a spurious IRQ at most).

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/core/deployment.h"
#include "src/core/fuzzer.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/os/freertos/freertos.h"

namespace eof {
namespace {

class PeripheralEventsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }
};

TEST_F(PeripheralEventsTest, BoardQueueBoundsAndReset) {
  Board board(BoardSpecByName("esp32-devkitc").value());
  PeripheralEvent event{PeripheralEventKind::kSerialRx, 'x'};
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(board.InjectPeripheralEvent(event));
  }
  EXPECT_FALSE(board.InjectPeripheralEvent(event));  // saturated
  board.Reset();
  PeripheralEvent out;
  EXPECT_FALSE(board.NextPeripheralEvent(&out));  // reset drains the queue
}

TEST_F(PeripheralEventsTest, EventsReachTheIsrThroughTheAgent) {
  DeployOptions options;
  options.os_name = "freertos";
  auto deployment = Deployment::Create(options).value();
  DebugPort& port = deployment->port();

  // Inject a serial byte, two GPIO edges on line 2, and a timer tick.
  ASSERT_TRUE(port.InjectPeripheralEvent({PeripheralEventKind::kSerialRx, 'A'}).ok());
  ASSERT_TRUE(port.InjectPeripheralEvent({PeripheralEventKind::kGpioEdge, 2}).ok());
  ASSERT_TRUE(port.InjectPeripheralEvent({PeripheralEventKind::kGpioEdge, 2 | 0x100}).ok());
  ASSERT_TRUE(port.InjectPeripheralEvent({PeripheralEventKind::kTimerTick, 0}).ok());

  // Run one trivial call so the agent dispatches the pending events.
  std::unique_ptr<Os> scratch = OsRegistry::Instance().Find("freertos").value().factory();
  std::vector<uint8_t> program;
  WireWriter(&program).Call(scratch->registry().FindByName("uxTaskGetNumberOfTasks")->id, 0);
  ASSERT_TRUE(deployment->WriteTestCase(program).ok());
  auto stop = port.Continue();
  ASSERT_TRUE(stop.ok());

  // The kernel state is target-internal; observe the plumbing through the queue bound
  // instead: all four events were consumed, so a fresh burst is fully accepted up to the
  // 64-entry generator limit.
  int accepted = 0;
  for (int i = 0; i < 70; ++i) {
    if (port.InjectPeripheralEvent({PeripheralEventKind::kSerialRx,
                                    static_cast<uint32_t>(i)}).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 64);
}

TEST_F(PeripheralEventsTest, IsrHandlersUpdateKernelStateAndGate) {
  // Drive the OS handler directly (unit level) on boards with and without the devices.
  for (const char* board_name : {"esp32-devkitc", "qemu-virt-arm"}) {
    OsInfo info = OsRegistry::Instance().Find("freertos").value();
    BoardSpec spec = BoardSpecByName(board_name).value();
    ImageBuildOptions build;
    build.os_name = "freertos";
    auto image = BuildImage(spec, build).value();
    Board board(spec);
    board.InstallImage(image);
    CovRingLayout ring;
    ring.ram_offset = kCovRingOffset;
    ring.capacity = 256;
    KernelContext ctx(board, *image, ring);
    auto os = info.factory();
    ASSERT_TRUE(os->Init(ctx).ok());
    auto* freertos = static_cast<freertos::FreeRtosOs*>(os.get());

    os->OnPeripheralEvent(ctx, {PeripheralEventKind::kSerialRx, 'Z'});
    os->OnPeripheralEvent(ctx, {PeripheralEventKind::kGpioEdge, 1});
    if (spec.HasPeripheral(Peripheral::kUartHw)) {
      EXPECT_EQ(freertos->state_for_test().uart_rx_ring.size(), 1u) << board_name;
      EXPECT_EQ(freertos->state_for_test().gpio_edge_count[1], 1u);
      EXPECT_EQ(freertos->state_for_test().spurious_irq_count, 0u);
    } else {
      // Emulated machine without the devices: spurious IRQs, no state change.
      EXPECT_TRUE(freertos->state_for_test().uart_rx_ring.empty()) << board_name;
      EXPECT_EQ(freertos->state_for_test().spurious_irq_count, 2u);
    }
  }
}

TEST_F(PeripheralEventsTest, TimerTickEventFiresSoftwareTimers) {
  OsInfo info = OsRegistry::Instance().Find("freertos").value();
  BoardSpec spec = BoardSpecByName("esp32-devkitc").value();
  ImageBuildOptions build;
  build.os_name = "freertos";
  auto image = BuildImage(spec, build).value();
  Board board(spec);
  board.InstallImage(image);
  CovRingLayout ring;
  ring.ram_offset = kCovRingOffset;
  ring.capacity = 256;
  KernelContext ctx(board, *image, ring);
  auto os = info.factory();
  ASSERT_TRUE(os->Init(ctx).ok());
  auto* freertos = static_cast<freertos::FreeRtosOs*>(os.get());

  // Arm a 2-tick timer, then inject tick events until it fires.
  freertos::SwTimer timer;
  timer.name = "t";
  timer.period_ticks = 2;
  timer.autoreload = false;
  timer.active = true;
  timer.expiry_tick = freertos->state_for_test().tick_count + 2;
  int64_t handle = freertos->state_for_test().timers.Insert(std::move(timer));
  ASSERT_NE(handle, 0);
  for (int i = 0; i < 3; ++i) {
    os->OnPeripheralEvent(ctx, {PeripheralEventKind::kTimerTick, 1});
  }
  EXPECT_GT(freertos->state_for_test().timers.Find(handle)->fire_count, 0u);
}

TEST_F(PeripheralEventsTest, CampaignWithInjectionGainsIsrCoverage) {
  uint64_t coverage[2] = {0, 0};
  int index = 0;
  for (bool inject : {false, true}) {
    FuzzerConfig config;
    config.os_name = "rtthread";
    config.seed = 77;
    config.budget = 30 * kVirtualMinute;
    config.inject_peripheral_events = inject;
    EofFuzzer fuzzer(config);
    auto result = fuzzer.Run();
    ASSERT_TRUE(result.ok());
    coverage[index++] = result.value().final_coverage;
  }
  EXPECT_GT(coverage[1], coverage[0]);  // ISR rows only exist with injection
}

}  // namespace
}  // namespace eof
