// Per-subsystem registration hooks for the FreeRTOS-like kernel. Each function registers
// its subsystem's API specs + implementations against the shared state.

#ifndef SRC_OS_FREERTOS_APIS_H_
#define SRC_OS_FREERTOS_APIS_H_

#include "src/common/status.h"
#include "src/kernel/api.h"
#include "src/os/freertos/state.h"

namespace eof {
namespace freertos {

Status RegisterTaskApis(ApiTable<FreeRtosState>& table);
Status RegisterQueueApis(ApiTable<FreeRtosState>& table);
Status RegisterEventGroupApis(ApiTable<FreeRtosState>& table);
Status RegisterTimerApis(ApiTable<FreeRtosState>& table);
Status RegisterHeapApis(ApiTable<FreeRtosState>& table);
Status RegisterStreamBufferApis(ApiTable<FreeRtosState>& table);
Status RegisterPartitionApis(ApiTable<FreeRtosState>& table);
Status RegisterPseudoApis(ApiTable<FreeRtosState>& table);

// Heap bookkeeping shared with Init().
void HeapInit(FreeRtosState& state, uint64_t arena_size);

// Timer expiry processing, called from FreeRtosOs::Tick().
void TimersOnTick(KernelContext& ctx, FreeRtosState& state);

}  // namespace freertos
}  // namespace eof

#endif  // SRC_OS_FREERTOS_APIS_H_
