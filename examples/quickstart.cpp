// Quickstart: deploy a FreeRTOS target on an ESP32-class board, drive one hand-written
// test case through the debug port (the Figure-4 protocol), and read back status,
// coverage, and the UART log.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "src/agent/wire.h"
#include "src/core/deployment.h"
#include "src/fuzz/program.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

using namespace eof;

int main() {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }

  // 1. Deploy: build the instrumented image, flash it over the debug port, boot.
  DeployOptions options;
  options.os_name = "freertos";  // default board: esp32-devkitc
  auto deployment_or = Deployment::Create(options);
  if (!deployment_or.ok()) {
    fprintf(stderr, "deploy failed: %s\n", deployment_or.status().ToString().c_str());
    return 1;
  }
  Deployment& target = *deployment_or.value();
  printf("deployed %s on %s (image %.2f MB)\n", target.image().os_name().c_str(),
         target.board_spec().name.c_str(),
         static_cast<double>(target.image().size_bytes()) / (1024 * 1024));
  printf("boot log:\n%s\n", target.port().DrainUart().c_str());

  // 2. Park the agent at executor_main (the synchronisation breakpoint of Figure 4).
  uint64_t executor_main = target.SymbolAddress("executor_main").value();
  (void)target.port().SetBreakpoint(executor_main);
  auto parked = target.port().Continue();
  if (!parked.ok() || parked.value().symbol != "executor_main") {
    fprintf(stderr, "agent did not park\n");
    return 1;
  }

  // 3. Hand-write a test case: create a queue, send to it, read the depth.
  std::unique_ptr<Os> os = OsRegistry::Instance().Find("freertos").value().factory();
  std::vector<uint8_t> program;
  {
    using fuzz::ProgArg;
    WireWriter writer(&program);
    fuzz::WriteCall(&writer, os->registry().FindByName("xQueueCreate")->id,
                    {ProgArg::Scalar(8), ProgArg::Scalar(16)});
    fuzz::WriteCall(&writer, os->registry().FindByName("xQueueSend")->id,
                    {ProgArg::Result(0), ProgArg::Bytes({'h', 'i'}), ProgArg::Scalar(0)});
    fuzz::WriteCall(&writer, os->registry().FindByName("uxQueueMessagesWaiting")->id,
                    {ProgArg::Result(0)});
  }

  // 4. Publish via the mailbox and resume; the agent deserializes and executes.
  (void)target.WriteTestCase(program);
  (void)target.port().Continue();

  auto status = target.ReadAgentStatus().value();
  printf("program executed: %u calls, error=%u\n", status.total_calls,
         static_cast<unsigned>(status.last_error));

  // 5. Drain the coverage ring: the branches the test case touched.
  std::vector<CovHit> coverage;
  (void)target.DrainCoverage(&coverage);
  printf("coverage entries collected: %zu\n", coverage.size());
  printf("target PC now: 0x%llx\n",
         static_cast<unsigned long long>(target.port().ReadPC().value()));
  return 0;
}
