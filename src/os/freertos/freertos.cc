#include "src/os/freertos/freertos.h"

#include "src/common/logging.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/apps/apps.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/kernel");

constexpr uint64_t kHeapArenaBytes = 64 * 1024;

Status RegisterAppLayerApis(ApiTable<FreeRtosState>& table) {
  ApiTable<apps::AppsState> app_table;
  RETURN_IF_ERROR(apps::RegisterAppApis(app_table));
  return table.Include(app_table, &FreeRtosState::apps);
}

}  // namespace

const ApiTable<FreeRtosState>& FreeRtosOs::Apis() {
  // Built once per process, by whichever boot first needs it.
  static const ApiTable<FreeRtosState> table = BuildApiTable<FreeRtosState>(
      "FreeRTOS", {RegisterTaskApis, RegisterQueueApis, RegisterEventGroupApis, RegisterTimerApis,
                   RegisterHeapApis, RegisterStreamBufferApis, RegisterPartitionApis,
                   RegisterPseudoApis, RegisterAppLayerApis});
  return table;
}

Status FreeRtosOs::Init(KernelContext& ctx) {
  EOF_COV(ctx);
  ctx.ConsumeCycles(kApiBaseCycles * 4);  // clock tree, heap init, scheduler start
  HeapInit(state_, kHeapArenaBytes);
  state_.scheduler_running = true;
  // The IDLE task always exists once the scheduler starts.
  Tcb idle;
  idle.name = "IDLE";
  idle.priority = 0;
  idle.stack_words = 128;
  if (state_.tasks.Insert(std::move(idle)) == 0) {
    return InternalError("could not create IDLE task");
  }
  ctx.LogLine("FreeRTOS v10.5 (EOF sim) — scheduler started on " + ctx.env().spec().name);
  return OkStatus();
}

OsFootprint FreeRtosOs::footprint() const {
  // Base .text+.rodata+.data of the evaluation build (§5.5.1 reports 2.825 MB -> 2.947 MB
  // with instrumentation). edge_sites is the instrumentable-site population of the build.
  OsFootprint footprint;
  footprint.base_image_bytes = 2825 * 1024;
  footprint.edge_sites = 6800;
  return footprint;
}

std::vector<std::pair<std::string, uint64_t>> FreeRtosOs::modules() const {
  // Basic-block estimates per module; generous vs. the real site counts so hash collisions
  // in the synthetic BB space stay rare.
  return {
      {"freertos/kernel", 256},  {"freertos/task", 768},  {"freertos/queue", 1024},
      {"freertos/event", 512},   {"freertos/timer", 512}, {"freertos/heap", 768},
      {"freertos/stream", 512},  {"freertos/partition", 768}, {"freertos/pseudo", 512},
      {"apps/http", 1024},       {"apps/json", 768},
  };
}

void FreeRtosOs::OnPeripheralEvent(KernelContext& ctx, const PeripheralEvent& event) {
  // Interrupt context: short, no blocking, per-source coverage rows.
  ctx.ConsumeCycles(kContextSwitchCycles);
  switch (event.kind) {
    case PeripheralEventKind::kSerialRx: {
      if (!ctx.HasPeripheral(Peripheral::kUartHw)) {
        ++state_.spurious_irq_count;
        EOF_COV(ctx);
        return;
      }
      EOF_COV(ctx);
      if (state_.uart_rx_ring.size() >= 64) {
        EOF_COV(ctx);  // RX overrun path
        ++state_.uart_rx_overruns;
        return;
      }
      state_.uart_rx_ring.push_back(static_cast<uint8_t>(event.value));
      EOF_COV_BUCKET(ctx, state_.uart_rx_ring.size() / 4);
      return;
    }
    case PeripheralEventKind::kGpioEdge: {
      if (!ctx.HasPeripheral(Peripheral::kGpio)) {
        ++state_.spurious_irq_count;
        EOF_COV(ctx);
        return;
      }
      EOF_COV(ctx);
      uint32_t line = event.value & 0x3;
      ++state_.gpio_edge_count[line];
      EOF_COV_BUCKET(ctx, line * 4 + (event.value >> 8 & 1));
      return;
    }
    case PeripheralEventKind::kTimerTick: {
      if (!ctx.HasPeripheral(Peripheral::kHwTimer)) {
        ++state_.spurious_irq_count;
        return;
      }
      EOF_COV(ctx);
      state_.tick_count += 1 + (event.value & 0x7);
      TimersOnTick(ctx, state_);
      return;
    }
    default:
      EOF_COV(ctx);
      ++state_.spurious_irq_count;  // no CAN controller on this target
      return;
  }
}

void FreeRtosOs::Tick(KernelContext& ctx) {
  ++state_.tick_count;
  ctx.ConsumeCycles(kTickCycles);
  TimersOnTick(ctx, state_);
}

Status RegisterFreeRtosOs() {
  OsInfo info;
  info.name = "freertos";
  info.factory = [] { return std::make_unique<FreeRtosOs>(); };
  info.supported_archs = {Arch::kArm, Arch::kRiscV, Arch::kXtensa};
  info.default_board = "esp32-devkitc";
  info.description = "FreeRTOS-like kernel: tasks, queues, semaphores, event groups, "
                     "software timers, heap_4, stream buffers, ESP-IDF partitions";
  return OsRegistry::Instance().Register(std::move(info));
}

}  // namespace freertos
}  // namespace eof
