#include "src/os/zephyr/zephyr.h"

#include "src/common/logging.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/kernel");

}  // namespace

const ApiTable<ZephyrState>& ZephyrOs::Apis() {
  // Built once per process, by whichever boot first needs it.
  static const ApiTable<ZephyrState> table = BuildApiTable<ZephyrState>(
      "Zephyr", {RegisterSysHeapApis, RegisterKHeapApis, RegisterMsgqApis, RegisterJsonApis,
                 RegisterThreadApis, RegisterFifoApis});
  return table;
}

Status ZephyrOs::Init(KernelContext& ctx) {
  EOF_COV(ctx);
  ctx.ConsumeCycles(kApiBaseCycles * 4);
  SysHeapInit(state_, 32 * 1024);
  ctx.LogLine("*** Booting Zephyr OS build v3.6.0 (EOF sim) on " + ctx.env().spec().name +
              " ***");
  return OkStatus();
}

OsFootprint ZephyrOs::footprint() const {
  // §5.5.1: 0.803 MB -> 0.88 MB with instrumentation (+9.58%).
  OsFootprint footprint;
  footprint.base_image_bytes = 822 * 1024;
  footprint.edge_sites = 4400;
  return footprint;
}

std::vector<std::pair<std::string, uint64_t>> ZephyrOs::modules() const {
  return {
      {"zephyr/kernel", 256}, {"zephyr/heap", 896},  {"zephyr/kheap", 512},
      {"zephyr/msgq", 768},   {"zephyr/json", 896},  {"zephyr/thread", 896},
      {"zephyr/fifo", 512},
  };
}

void ZephyrOs::Tick(KernelContext& ctx) {
  ++state_.uptime_ticks;
  ctx.ConsumeCycles(kTickCycles);
}

Status RegisterZephyrOs() {
  OsInfo info;
  info.name = "zephyr";
  info.factory = [] { return std::make_unique<ZephyrOs>(); };
  info.supported_archs = {Arch::kArm, Arch::kRiscV, Arch::kXtensa};
  info.default_board = "stm32f407-disco";
  info.description = "Zephyr-like kernel: sys_heap/k_heap, message queues, JSON library, "
                     "preemptive threads + work queues, FIFOs";
  return OsRegistry::Instance().Register(std::move(info));
}

}  // namespace zephyr
}  // namespace eof
