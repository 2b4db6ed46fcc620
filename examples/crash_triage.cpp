// Crash triage walkthrough: reproduce the paper's Figure-6 case study (bug #12,
// rt_serial_write on a stale console device) step by step — arm the exception monitor,
// run the triggering sequence, capture the backtrace from the UART, watch the plain
// reboot fail to matter, and recover with the reflash path.
//
//   $ ./build/examples/crash_triage

#include <cstdio>

#include "src/agent/wire.h"
#include "src/core/deployment.h"
#include "src/core/monitors.h"
#include "src/fuzz/program.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

using namespace eof;

namespace {

uint32_t ApiId(const Os& os, const char* name) {
  const ApiSpec* spec = os.registry().FindByName(name);
  return spec != nullptr ? spec->id : 0;
}

}  // namespace

int main() {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }
  DeployOptions options;
  options.os_name = "rtthread";
  auto deployment_or = Deployment::Create(options);
  if (!deployment_or.ok()) {
    fprintf(stderr, "deploy failed: %s\n", deployment_or.status().ToString().c_str());
    return 1;
  }
  Deployment& target = *deployment_or.value();
  (void)target.port().DrainUart();

  // Exception monitor: breakpoint on RT-Thread's common_exception().
  ExceptionMonitor exception_monitor;
  if (!exception_monitor.Arm(target, "common_exception").ok()) {
    fprintf(stderr, "could not arm the exception monitor\n");
    return 1;
  }
  uint64_t executor_main = target.SymbolAddress("executor_main").value();
  (void)target.port().SetBreakpoint(executor_main);
  (void)target.port().Continue();  // park at executor_main

  // The Figure-6 trigger: warm the console TX path, unregister the console device while
  // the console still points at it, then create a socket — sal_socket's log message rides
  // the stale serial pointer into the fault.
  std::unique_ptr<Os> os = OsRegistry::Instance().Find("rtthread").value().factory();
  using fuzz::ProgArg;
  std::vector<uint8_t> program;
  WireWriter writer(&program);
  auto call = [&](const char* api, const std::vector<ProgArg>& args) {
    fuzz::WriteCall(&writer, ApiId(*os, api), args);
  };
  call("rt_device_find", {ProgArg::Bytes({'u', 'a', 'r', 't', '1'})});
  call("rt_device_open", {ProgArg::Result(0), ProgArg::Scalar(0x043)});
  for (int i = 0; i < 4; ++i) {
    call("rt_device_write", {ProgArg::Result(0), ProgArg::Bytes({'l', 'o', 'g', '\n'})});
  }
  call("rt_console_set_device", {ProgArg::Bytes({'u', 'a', 'r', 't', '1'})});
  call("rt_device_unregister", {ProgArg::Result(0)});
  call("syz_create_bind_socket",
       {ProgArg::Scalar(2), ProgArg::Scalar(1), ProgArg::Scalar(0), ProgArg::Scalar(8080)});

  printf("running the Figure-6 sequence (%zu calls)...\n", writer.calls());
  (void)target.WriteTestCase(program);
  auto stop = target.port().Continue();
  if (!stop.ok()) {
    fprintf(stderr, "continue failed: %s\n", stop.status().ToString().c_str());
    return 1;
  }
  if (exception_monitor.IsExceptionStop(stop.value())) {
    printf("\nexception monitor: target stopped at %s\n", stop.value().symbol.c_str());
  }
  printf("\nUART capture (the Figure-6 backtrace):\n%s\n", target.port().DrainUart().c_str());

  // A plain reboot works here (no flash damage), but demonstrate the full restoration
  // path the fuzzer uses after any unrecoverable state.
  printf("state restoration: reflash + reboot... ");
  if (target.ReflashAndReboot().ok() &&
      target.board().power_state() == PowerState::kRunning) {
    printf("target healthy again\n");
    return 0;
  }
  printf("FAILED\n");
  return 1;
}
