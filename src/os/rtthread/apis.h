// Per-subsystem registration hooks for the RT-Thread-like kernel.

#ifndef SRC_OS_RTTHREAD_APIS_H_
#define SRC_OS_RTTHREAD_APIS_H_

#include "src/common/status.h"
#include "src/kernel/api.h"
#include "src/os/rtthread/state.h"

namespace eof {
namespace rtthread {

Status RegisterObjectApis(ApiTable<RtThreadState>& table);
Status RegisterThreadApis(ApiTable<RtThreadState>& table);
Status RegisterIpcApis(ApiTable<RtThreadState>& table);
Status RegisterMemPoolApis(ApiTable<RtThreadState>& table);
Status RegisterSmemApis(ApiTable<RtThreadState>& table);
Status RegisterHeapApis(ApiTable<RtThreadState>& table);
Status RegisterDeviceApis(ApiTable<RtThreadState>& table);
Status RegisterServiceApis(ApiTable<RtThreadState>& table);
Status RegisterSocketApis(ApiTable<RtThreadState>& table);

// Console output path: rt_kprintf -> _kputs -> rt_device_write -> rt_serial_write.
// Exposed to the socket layer, whose logging rides this path (Figure 6 / bug #12).
void RtKprintf(KernelContext& ctx, RtThreadState& state, const std::string& line);

// Boot-time device table population (uart0/uart1, pin device).
void DevicesInit(KernelContext& ctx, RtThreadState& state);

}  // namespace rtthread
}  // namespace eof

#endif  // SRC_OS_RTTHREAD_APIS_H_
