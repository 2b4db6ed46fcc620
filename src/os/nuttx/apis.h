// Per-subsystem registration hooks for the NuttX-like kernel.

#ifndef SRC_OS_NUTTX_APIS_H_
#define SRC_OS_NUTTX_APIS_H_

#include "src/common/status.h"
#include "src/kernel/api.h"
#include "src/os/nuttx/state.h"

namespace eof {
namespace nuttx {

Status RegisterEnvApis(ApiTable<NuttxState>& table);
Status RegisterTimeApis(ApiTable<NuttxState>& table);
Status RegisterMqApis(ApiTable<NuttxState>& table);
Status RegisterSemApis(ApiTable<NuttxState>& table);
Status RegisterTimerApis(ApiTable<NuttxState>& table);
Status RegisterTaskApis(ApiTable<NuttxState>& table);

}  // namespace nuttx
}  // namespace eof

#endif  // SRC_OS_NUTTX_APIS_H_
