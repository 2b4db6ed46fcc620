// End-to-end smoke tests of the deploy → boot → execute loop (Figure 4): flash the image,
// park at executor_main, feed a program through the mailbox, observe status and coverage.

#include "src/core/deployment.h"

#include <gtest/gtest.h>

#include "src/agent/wire.h"
#include "src/fuzz/program.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  std::unique_ptr<Deployment> Deploy(const std::string& os_name) {
    DeployOptions options;
    options.os_name = os_name;
    auto deployment = Deployment::Create(options);
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    return deployment.ok() ? std::move(deployment.value()) : nullptr;
  }

  // Runs one program through the Figure-4 protocol: stop at executor_main, publish the
  // test case, resume until the agent is back at executor_main.
  void RunProgram(Deployment& deployment, const std::vector<uint8_t>& program) {
    uint64_t executor_main = deployment.SymbolAddress("executor_main").value();
    ASSERT_TRUE(deployment.port().SetBreakpoint(executor_main).ok());
    auto parked = deployment.port().Continue();
    ASSERT_TRUE(parked.ok()) << parked.status().ToString();
    ASSERT_EQ(parked.value().reason, HaltReason::kBreakpoint);
    ASSERT_TRUE(deployment.WriteTestCase(program).ok());
    auto done = deployment.port().Continue();
    ASSERT_TRUE(done.ok()) << done.status().ToString();
  }
};

TEST_F(DeploymentTest, BootsToAgentIdle) {
  auto deployment = Deploy("freertos");
  ASSERT_NE(deployment, nullptr);
  EXPECT_EQ(deployment->board().power_state(), PowerState::kRunning);

  // Boot banner reaches the UART.
  std::string uart = deployment->port().DrainUart();
  EXPECT_NE(uart.find("FreeRTOS"), std::string::npos) << uart;
  EXPECT_NE(uart.find("eof-agent: ready"), std::string::npos) << uart;

  // With no breakpoints, the agent parks waiting for input.
  auto stop = deployment->port().Continue();
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().reason, HaltReason::kIdle);

  auto status = deployment->ReadAgentStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, AgentState::kWaiting);
}

TEST_F(DeploymentTest, StopsAtExecutorMainBreakpoint) {
  auto deployment = Deploy("freertos");
  ASSERT_NE(deployment, nullptr);
  uint64_t executor_main = deployment->SymbolAddress("executor_main").value();
  ASSERT_TRUE(deployment->port().SetBreakpoint(executor_main).ok());

  auto stop = deployment->port().Continue();
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().reason, HaltReason::kBreakpoint);
  EXPECT_EQ(stop.value().symbol, "executor_main");
}

TEST_F(DeploymentTest, ExecutesProgramAndReportsStatus) {
  auto deployment = Deploy("freertos");
  ASSERT_NE(deployment, nullptr);

  // Query API ids through a scratch OS instance (registration order is deterministic, so
  // ids match the booted instance).
  std::unique_ptr<Os> os = OsRegistry::Instance().Find("freertos").value().factory();
  const ApiSpec* create = os->registry().FindByName("xTaskCreate");
  ASSERT_NE(create, nullptr);

  std::vector<uint8_t> program;
  WireWriter writer(&program);
  fuzz::WriteCall(&writer, create->id,
                  {fuzz::ProgArg::Bytes({'t', 'e', 's', 't'}), fuzz::ProgArg::Scalar(256),
                   fuzz::ProgArg::Scalar(5)});

  RunProgram(*deployment, program);

  auto status = deployment->ReadAgentStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().progs_done, 1u);
  EXPECT_EQ(status.value().total_calls, 1u);
  EXPECT_EQ(status.value().last_error, AgentError::kNone);

  // The instrumented kernel produced coverage.
  std::vector<CovHit> coverage;
  ASSERT_TRUE(deployment->DrainCoverage(&coverage).ok());
  EXPECT_GT(coverage.size(), 0u);
}

TEST_F(DeploymentTest, RejectsMalformedProgram) {
  auto deployment = Deploy("freertos");
  ASSERT_NE(deployment, nullptr);
  ASSERT_TRUE(deployment->WriteTestCase({0xde, 0xad, 0xbe, 0xef}).ok());
  auto stop = deployment->port().Continue();
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().reason, HaltReason::kIdle);

  auto status = deployment->ReadAgentStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().last_error, AgentError::kBadMagic);
  EXPECT_EQ(status.value().progs_done, 1u);
}

TEST_F(DeploymentTest, PanicFreezesTargetAndReflashRestores) {
  auto deployment = Deploy("freertos");
  ASSERT_NE(deployment, nullptr);

  std::unique_ptr<Os> os = OsRegistry::Instance().Find("freertos").value().factory();
  const ApiSpec* load = os->registry().FindByName("load_partitions");
  ASSERT_NE(load, nullptr);

  // Exception monitor: breakpoint on the OS exception handler.
  uint64_t handler = deployment->SymbolAddress("panic_handler").value();
  ASSERT_TRUE(deployment->port().SetBreakpoint(handler).ok());

  std::vector<uint8_t> program;
  WireWriter writer(&program);
  writer.Call(load->id, 2);
  writer.Scalar(7);  // long copy from a high slot -> bug #13
  writer.Scalar(15);
  ASSERT_TRUE(deployment->WriteTestCase(program).ok());

  auto stop = deployment->port().Continue();
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop.value().reason, HaltReason::kBreakpoint);
  EXPECT_EQ(stop.value().symbol, "panic_handler");
  EXPECT_EQ(deployment->board().power_state(), PowerState::kFaulted);

  std::string uart = deployment->port().DrainUart();
  EXPECT_NE(uart.find("Guru Meditation"), std::string::npos) << uart;

  // Bug #13 also corrupts flash: a plain reboot must NOT recover the target.
  ASSERT_TRUE(deployment->port().ResetTarget().ok());
  EXPECT_EQ(deployment->board().power_state(), PowerState::kBootFailed);
  auto dead = deployment->port().Continue();
  EXPECT_FALSE(dead.ok());  // connection timeout: watchdog #1 territory

  // Full reflash restores it.
  ASSERT_TRUE(deployment->ReflashAndReboot().ok());
  EXPECT_EQ(deployment->board().power_state(), PowerState::kRunning);
}

}  // namespace
}  // namespace eof
