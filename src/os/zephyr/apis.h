// Per-subsystem registration hooks for the Zephyr-like kernel.

#ifndef SRC_OS_ZEPHYR_APIS_H_
#define SRC_OS_ZEPHYR_APIS_H_

#include "src/common/status.h"
#include "src/kernel/api.h"
#include "src/os/zephyr/state.h"

namespace eof {
namespace zephyr {

Status RegisterSysHeapApis(ApiTable<ZephyrState>& table);
Status RegisterKHeapApis(ApiTable<ZephyrState>& table);
Status RegisterMsgqApis(ApiTable<ZephyrState>& table);
Status RegisterJsonApis(ApiTable<ZephyrState>& table);
Status RegisterThreadApis(ApiTable<ZephyrState>& table);
Status RegisterFifoApis(ApiTable<ZephyrState>& table);

// Boot-time sys_heap arena initialisation.
void SysHeapInit(ZephyrState& state, uint64_t bytes);

}  // namespace zephyr
}  // namespace eof

#endif  // SRC_OS_ZEPHYR_APIS_H_
