// Application-level fuzzing targets: an HTTP server and a JSON component built on the
// FreeRTOS target (Table 4 / Figure 8 workloads). RegisterAppApis() wires them into an
// ApiTable; HttpHandleRaw/JsonParse are the byte-level entry points byte-buffer
// fuzzers (GDBFuzz/SHIFT) hit directly.

#ifndef SRC_APPS_APPS_H_
#define SRC_APPS_APPS_H_

#include <string>

#include "src/apps/apps_state.h"
#include "src/common/status.h"
#include "src/kernel/api.h"

namespace eof {

class KernelContext;

namespace apps {

// HTTP server entry points. Return HTTP status codes (or -1 when not started).
int64_t HttpServerStart(KernelContext& ctx, AppsState& state, uint16_t port);
int64_t HttpHandleRaw(KernelContext& ctx, AppsState& state, const std::string& raw);

// JSON component: parses a document, returns the node count on success or a negative
// parse-error code.
int64_t JsonParse(KernelContext& ctx, AppsState& state, const std::string& text);

// Registers the app-level API surface (http_* and json_* calls, structured + raw).
Status RegisterAppApis(ApiTable<AppsState>& table);

}  // namespace apps
}  // namespace eof

#endif  // SRC_APPS_APPS_H_
