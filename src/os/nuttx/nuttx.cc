#include "src/os/nuttx/nuttx.h"

#include "src/common/logging.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/kernel");

}  // namespace

const ApiTable<NuttxState>& NuttxOs::Apis() {
  // Built once per process, by whichever boot first needs it.
  static const ApiTable<NuttxState> table = BuildApiTable<NuttxState>(
      "NuttX", {RegisterEnvApis, RegisterTimeApis, RegisterMqApis, RegisterSemApis,
                RegisterTimerApis, RegisterTaskApis});
  return table;
}

Status NuttxOs::Init(KernelContext& ctx) {
  EOF_COV(ctx);
  ctx.ConsumeCycles(kApiBaseCycles * 4);
  state_.environ.push_back(EnvVar{"PATH", "/bin"});
  state_.environ_bytes = 11;
  ctx.LogLine("NuttShell (NSH) NuttX-12.5 (EOF sim) on " + ctx.env().spec().name);
  return OkStatus();
}

OsFootprint NuttxOs::footprint() const {
  // §5.5.1: 3.36 MB -> 3.52 MB with instrumentation (+4.76%).
  OsFootprint footprint;
  footprint.base_image_bytes = 3440 * 1024;
  footprint.edge_sites = 9100;
  return footprint;
}

std::vector<std::pair<std::string, uint64_t>> NuttxOs::modules() const {
  return {
      {"nuttx/kernel", 256},  {"nuttx/env", 768},       {"nuttx/libc", 768},
      {"nuttx/mqueue", 1024}, {"nuttx/semaphore", 768}, {"nuttx/timer", 768},
      {"nuttx/task", 640},
  };
}

void NuttxOs::Tick(KernelContext& ctx) {
  ++state_.boot_ticks;
  ctx.ConsumeCycles(kTickCycles);
}

Status RegisterNuttxOs() {
  OsInfo info;
  info.name = "nuttx";
  info.factory = [] { return std::make_unique<NuttxOs>(); };
  info.supported_archs = {Arch::kArm, Arch::kRiscV, Arch::kXtensa};
  info.default_board = "esp32-devkitc";
  info.description = "NuttX-like kernel: environ, POSIX mqueues/semaphores/timers, libc "
                     "time, task control";
  return OsRegistry::Instance().Register(std::move(info));
}

}  // namespace nuttx
}  // namespace eof
