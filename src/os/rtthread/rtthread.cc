#include "src/os/rtthread/rtthread.h"

#include "src/common/logging.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/kernel");

}  // namespace

const ApiTable<RtThreadState>& RtThreadOs::Apis() {
  // Built once per process, by whichever boot first needs it.
  static const ApiTable<RtThreadState> table = BuildApiTable<RtThreadState>(
      "RT-Thread", {RegisterObjectApis, RegisterThreadApis, RegisterIpcApis, RegisterMemPoolApis,
                    RegisterSmemApis, RegisterHeapApis, RegisterDeviceApis, RegisterServiceApis,
                    RegisterSocketApis});
  return table;
}

Status RtThreadOs::Init(KernelContext& ctx) {
  EOF_COV(ctx);
  ctx.ConsumeCycles(kApiBaseCycles * 4);
  DevicesInit(ctx, state_);
  ctx.LogLine(" \\ | /");
  ctx.LogLine("- RT -     Thread Operating System (EOF sim)");
  ctx.LogLine(" / | \\     5.1.0 build " + ctx.env().spec().name);
  return OkStatus();
}

OsFootprint RtThreadOs::footprint() const {
  // §5.5.1: 2.53 MB -> 2.71 MB with instrumentation (+7.11%).
  OsFootprint footprint;
  footprint.base_image_bytes = 2530 * 1024;
  footprint.edge_sites = 10200;
  return footprint;
}

std::vector<std::pair<std::string, uint64_t>> RtThreadOs::modules() const {
  return {
      {"rtthread/kernel", 256},  {"rtthread/object", 768}, {"rtthread/thread", 768},
      {"rtthread/ipc", 1280},    {"rtthread/mempool", 640}, {"rtthread/memory", 1024},
      {"rtthread/serial", 896},  {"rtthread/service", 512}, {"rtthread/socket", 896},
  };
}

void RtThreadOs::OnPeripheralEvent(KernelContext& ctx, const PeripheralEvent& event) {
  ctx.ConsumeCycles(kContextSwitchCycles);
  switch (event.kind) {
    case PeripheralEventKind::kSerialRx: {
      if (!ctx.HasPeripheral(Peripheral::kUartHw)) {
        return;
      }
      EOF_COV(ctx);
      if (state_.serial_rx_ring.size() >= 32) {
        EOF_COV(ctx);
        ++state_.serial_rx_overruns;
        return;
      }
      state_.serial_rx_ring.push_back(static_cast<uint8_t>(event.value));
      EOF_COV_BUCKET(ctx, state_.serial_rx_ring.size() / 2);
      return;
    }
    case PeripheralEventKind::kCanFrame: {
      if (!ctx.HasPeripheral(Peripheral::kCan)) {
        EOF_COV(ctx);
        return;
      }
      EOF_COV(ctx);
      ++state_.can_frames_seen;
      EOF_COV_BUCKET(ctx, (event.value >> 4) & 0xf);  // filter-bank row
      return;
    }
    case PeripheralEventKind::kGpioEdge: {
      if (!ctx.HasPeripheral(Peripheral::kGpio)) {
        return;
      }
      EOF_COV(ctx);
      ++state_.gpio_service_kicks;
      EOF_COV_BUCKET(ctx, event.value & 0x7);
      return;
    }
    default:
      EOF_COV(ctx);
      return;
  }
}

void RtThreadOs::Tick(KernelContext& ctx) {
  ++state_.tick;
  ctx.ConsumeCycles(kTickCycles);
}

Status RegisterRtThreadOs() {
  OsInfo info;
  info.name = "rtthread";
  info.factory = [] { return std::make_unique<RtThreadOs>(); };
  info.supported_archs = {Arch::kArm, Arch::kRiscV};
  info.default_board = "stm32h745-nucleo";
  info.description = "RT-Thread-like kernel: object registry, threads, IPC, memory pools, "
                     "small-memory allocator, device framework with serial console, SAL "
                     "sockets, background services";
  return OsRegistry::Instance().Register(std::move(info));
}

}  // namespace rtthread
}  // namespace eof
