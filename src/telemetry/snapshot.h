// CampaignSnapshot emission: the periodic per-board / farm-wide metric rows behind
// `eof fuzz --metrics-out`. Workers report their session clock after every execution;
// whenever a board crosses an interval boundary its registry is snapshotted into a
// "board_snapshot" JSONL row, and whenever the campaign frontier (the slowest active
// board's clock — the same rule the coverage series uses) crosses a boundary the
// merged per-board registries plus a snapshot of the campaign registry become one
// "farm_snapshot" row. Emission is driven purely by virtual time and never touches
// campaign state, so metrics-on and metrics-off runs are bit-identical.

#ifndef SRC_TELEMETRY_SNAPSHOT_H_
#define SRC_TELEMETRY_SNAPSHOT_H_

#include <functional>
#include <mutex>
#include <vector>

#include "src/common/vclock.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace eof {
namespace telemetry {

// Rate per virtual second, 0 over an empty window.
double PerVirtualSecond(uint64_t count, VirtualTime window);

class SnapshotEmitter {
 public:
  // `boards[i]` is worker i's registry; registries and `sink` must outlive the
  // emitter. `interval` <= 0 disables periodic rows (Finish still emits a final
  // farm row). `campaign` snapshots the campaign registry for farm rows; it is
  // called outside any campaign lock the caller holds.
  // `labels[i]` (when non-empty) stamps board rows with worker i's campaign-global
  // shard label instead of its local slot, so merged fleet journals keep boards
  // distinct; `emit_farm_rows=false` suppresses farm_snapshot rows entirely (fleet
  // workers — the orchestrator journals the authoritative campaign-wide rows).
  SnapshotEmitter(std::vector<const MetricsRegistry*> boards,
                  std::function<MetricsSnapshot()> campaign, EventSink* sink,
                  VirtualDuration interval, VirtualDuration budget,
                  std::vector<int> labels = {}, bool emit_farm_rows = true);

  // Worker `worker` has lived to `elapsed` on its own board clock. Emits every
  // board row the worker newly crossed and every farm row the frontier newly
  // crossed. Cheap when no boundary was crossed: one mutex + two compares.
  void MaybeEmit(int worker, VirtualTime elapsed);

  // The worker's session ended; it no longer holds the frontier back. `elapsed`
  // (when non-zero) stamps a final board_snapshot row at the session's closing
  // clock so per-board time accounting covers the whole session, not just the
  // last interval boundary crossed.
  void WorkerDone(int worker, VirtualTime elapsed = 0);

  // Emits the final farm row at campaign end and flushes the sink.
  void Finish(VirtualTime elapsed);

 private:
  void EmitBoardLocked(int worker, VirtualTime at);
  void EmitFarmLocked(VirtualTime at);
  VirtualTime FrontierLocked() const;

  std::vector<const MetricsRegistry*> boards_;
  std::function<MetricsSnapshot()> campaign_;
  EventSink* sink_;
  VirtualDuration interval_;
  VirtualDuration budget_;
  std::vector<int> labels_;  // empty = identity
  bool emit_farm_rows_;

  std::mutex mu_;
  std::vector<VirtualTime> elapsed_;
  std::vector<VirtualTime> next_board_;
  std::vector<bool> done_;
  VirtualTime next_farm_;
};

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_SNAPSHOT_H_
