// Observer-role client helpers for the live observability plane: one-shot
// status polls against a serving orchestrator, the `eof top` frame renderer,
// and the fleet half of the /metrics exposition.
//
// An observer is read-only by construction: it never says Hello, never takes a
// worker id, and never holds leases — it opens a connection, sends one
// StatusRequest, reads the StatusReply, says Goodbye, and closes. The
// orchestrator serves the request from a bounded-staleness snapshot (at most
// one state walk per heartbeat interval), so a polling observer perturbs
// nothing about the campaign: no coverage, corpus, bug-table, or lease change.

#ifndef SRC_FLEET_OBSERVER_H_
#define SRC_FLEET_OBSERVER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "src/telemetry/metrics.h"

namespace eof {
namespace fleet {

// One status poll over an already-connected transport. Sends StatusRequest,
// waits up to `timeout_ms` for the StatusReply, then sends Goodbye. The caller
// owns (and typically closes) the transport; observers reconnect per poll.
Result<StatusReplyMsg> FetchStatus(Transport* transport,
                                   const std::string& campaign_id,
                                   bool include_shards, int timeout_ms);

// Renders one `eof top` frame from the poll history (oldest first, newest
// last; the newest reply is the frame's truth, earlier ones feed the exec-rate
// sparkline and the plateau detector). Plain text, one trailing newline.
std::string RenderTopFrame(const std::vector<StatusReplyMsg>& history);

// Renders the fleet half of GET /metrics: per-campaign and per-worker families
// from the status snapshot (campaign= / worker= labels) and the orchestrator's
// own instrument registry, one "# TYPE" line per family.
std::string RenderFleetMetrics(const StatusReplyMsg& status,
                               const telemetry::MetricsSnapshot& orchestrator);

}  // namespace fleet
}  // namespace eof

#endif  // SRC_FLEET_OBSERVER_H_
