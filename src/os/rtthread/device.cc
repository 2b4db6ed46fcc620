// The RT-Thread device framework and the serial console path
// rt_kprintf -> _kputs -> rt_device_write -> rt_serial_write -> _serial_poll_tx.
//
// ── Bug #12 (Table 2): RT-Thread / Serial / Kernel Panic / rt_serial_write() ──
// The case study of Figure 6. The console keeps a raw pointer to its serial device; after
// the device is unregistered the pointer is stale but non-NULL, so the RT_ASSERT in
// _serial_poll_tx does not fire. With the poll-tx buffer warmed by at least two prior
// writes, the next console message (e.g. the socket layer's creation log) dereferences the
// recycled ops table — a bus fault. Requires real UART hardware: on peripheral-less
// emulated boards console output degrades to the semihost path and never enters
// rt_serial_write.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/serial");

constexpr uint16_t RT_DEVICE_FLAG_STREAM = 0x040;

Device* DeviceAt(RtThreadState& state, int64_t handle) {
  if (handle <= 0 || static_cast<size_t>(handle) > state.devices.size()) {
    return nullptr;
  }
  return &state.devices[static_cast<size_t>(handle) - 1];
}

void SerialPollTx(KernelContext& ctx, RtThreadState& state, Device& serial, size_t bytes) {
  // RT_ASSERT(serial != RT_NULL) — passes even when the device is stale (Figure 6:20).
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * 8 * bytes);  // polled TX at UART pace
  if (!serial.registered) {
    EOF_COV(ctx);
    if ((serial.open_flag & RT_DEVICE_FLAG_STREAM) == 0 || (serial.open_flag & 0x3) == 0) {
      // Non-stream or read-only stale consoles spin on the TX-empty poll instead.
      ctx.Hang("serial TX on cold stale device spins on TX-empty");
    }
    // Only a console installed through rt_console_set_device() misses the unregister
    // teardown hook; the boot console is torn down correctly and just wedges.
    if (serial.tx_count >= 4 && state.console_retargeted) {
      EOF_COV(ctx);
      // BUG #12: dereference of the recycled ops table behind the stale pointer.
      ctx.Panic(
          "BUG: unexpected stop: bus fault on serial->ops->putc",
          "Stack frames at BUG:\n"
          " Level 1: /path/to/serial.c : rt_serial_write : 917\n"
          " Level 2: /path/to/device.c : rt_device_write : 396\n"
          " Level 3: /path/to/kservice.c : _kputs : 298\n"
          " Level 4: /path/to/kservice.c : rt_kprintf : 349\n"
          " Level 5: /path/to/sal_socket.c : sal_socket : 1059\n"
          " Level 6: /path/to/net_sockets.c : socket : 244\n"
          " Level 7: /path/to/agent : syz_create_bind_socket : 896");
    }
    ctx.Hang("serial TX on cold stale device spins on TX-empty");
  }
  ++serial.tx_count;
  (void)state;
}

}  // namespace

void DevicesInit(KernelContext& ctx, RtThreadState& state) {
  (void)ctx;
  Device uart0;
  uart0.name = "uart0";
  uart0.is_serial = true;
  Device uart1;
  uart1.name = "uart1";
  uart1.is_serial = true;
  Device pin;
  pin.name = "pin";
  state.devices = {uart0, uart1, pin};
  state.console_device = 0;  // console on uart0
}

void RtKprintf(KernelContext& ctx, RtThreadState& state, const std::string& line) {
  ctx.ConsumeCycles(kListOpCycles * 4);
  if (state.console_device < 0 ||
      static_cast<size_t>(state.console_device) >= state.devices.size() ||
      !ctx.HasPeripheral(Peripheral::kUartHw)) {
    // No console serial (or no UART hardware): semihost fallback.
    ctx.LogLine(line);
    return;
  }
  Device& console = state.devices[static_cast<size_t>(state.console_device)];
  SerialPollTx(ctx, state, console, line.size());
  ctx.LogLine(line);
}

namespace {

int64_t DeviceFind(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  for (size_t i = 0; i < state.devices.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (state.devices[i].registered && state.devices[i].name == name) {
      EOF_COV(ctx);
      return static_cast<int64_t>(i) + 1;
    }
  }
  EOF_COV(ctx);
  return 0;
}

int64_t DeviceOpen(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Device* device = DeviceAt(state, static_cast<int64_t>(args[0].scalar));
  if (device == nullptr || !device->registered) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (device->opened) {
    EOF_COV(ctx);
    return RT_EOK;  // reference-counted open
  }
  EOF_COV(ctx);
  device->opened = true;
  device->open_flag = static_cast<uint16_t>(args[1].scalar);
  device->tx_count = 0;
  return RT_EOK;
}

int64_t DeviceClose(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Device* device = DeviceAt(state, static_cast<int64_t>(args[0].scalar));
  if (device == nullptr || !device->opened) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  device->opened = false;
  return RT_EOK;
}

int64_t DeviceWrite(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Device* device = DeviceAt(state, static_cast<int64_t>(args[0].scalar));
  if (device == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (!device->opened) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  const std::vector<uint8_t>& data = args[1].bytes;
  if (device->is_serial) {
    if (!ctx.HasPeripheral(Peripheral::kUartHw)) {
      EOF_COV(ctx);
      return static_cast<int64_t>(data.size());  // swallowed by the emulated stub
    }
    EOF_COV(ctx);
    EOF_COV_BUCKET(ctx, CovSizeClass(data.size()));
    EOF_COV_BUCKET(ctx, device->tx_count > 12 ? 12 : device->tx_count);
    SerialPollTx(ctx, state, *device, data.size());
    if ((device->open_flag & RT_DEVICE_FLAG_STREAM) != 0) {
      EOF_COV(ctx);  // '\n' -> '\r\n' expansion path
    }
    return static_cast<int64_t>(data.size());
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * data.size());
  return static_cast<int64_t>(data.size());
}

int64_t DeviceUnregister(KernelContext& ctx, RtThreadState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Device* device = DeviceAt(state, static_cast<int64_t>(args[0].scalar));
  if (device == nullptr || !device->registered) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  // Note: the console pointer is NOT cleared — the incomplete teardown behind bug #12.
  device->registered = false;
  return RT_EOK;
}

int64_t ConsoleSetDevice(KernelContext& ctx, RtThreadState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  for (size_t i = 0; i < state.devices.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (state.devices[i].registered && state.devices[i].is_serial &&
        state.devices[i].name == name) {
      EOF_COV(ctx);
      EOF_COV_BUCKET(ctx, i + (state.devices[i].opened ? 8 : 0));  // switch rows
      state.console_device = static_cast<int>(i);
      state.console_retargeted = true;
      return RT_EOK;
    }
  }
  EOF_COV(ctx);
  return RT_ERROR;
}

}  // namespace

Status RegisterDeviceApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_device_find";
    spec.subsystem = "serial";
    spec.doc = "look up a registered device by name";
    spec.args = {ArgSpec::String("name", {"uart0", "uart1", "pin", "spi0"})};
    spec.produces = "rt_device";
    RETURN_IF_ERROR(table.Register(std::move(spec), DeviceFind));
  }
  {
    ApiSpec spec;
    spec.name = "rt_device_open";
    spec.subsystem = "serial";
    spec.doc = "open a device (flag 0x040 = stream mode)";
    spec.args = {ArgSpec::Resource("dev", "rt_device"),
                 ArgSpec::Flags("oflag", {0, 0x001, 0x002, 0x003, 0x040, 0x043},
                                /*combinable=*/false)};
    RETURN_IF_ERROR(table.Register(std::move(spec), DeviceOpen));
  }
  {
    ApiSpec spec;
    spec.name = "rt_device_close";
    spec.subsystem = "serial";
    spec.doc = "close a device";
    spec.args = {ArgSpec::Resource("dev", "rt_device")};
    RETURN_IF_ERROR(table.Register(std::move(spec), DeviceClose));
  }
  {
    ApiSpec spec;
    spec.name = "rt_device_write";
    spec.subsystem = "serial";
    spec.doc = "write bytes to a device";
    spec.args = {ArgSpec::Resource("dev", "rt_device"), ArgSpec::Buffer("data", 0, 256)};
    RETURN_IF_ERROR(table.Register(std::move(spec), DeviceWrite));
  }
  {
    ApiSpec spec;
    spec.name = "rt_device_unregister";
    spec.subsystem = "serial";
    spec.doc = "remove a device from the registry";
    spec.args = {ArgSpec::Resource("dev", "rt_device")};
    RETURN_IF_ERROR(table.Register(std::move(spec), DeviceUnregister));
  }
  {
    ApiSpec spec;
    spec.name = "rt_console_set_device";
    spec.subsystem = "serial";
    spec.doc = "route the kernel console to a serial device";
    spec.args = {ArgSpec::String("name", {"uart0", "uart1"})};
    RETURN_IF_ERROR(table.Register(std::move(spec), ConsoleSetDevice));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
