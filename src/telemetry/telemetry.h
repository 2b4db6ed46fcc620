// The telemetry wiring the campaign runners hand to the layers they own:
//
//   BoardTelemetry    — one per board session: the session's MetricsRegistry, its
//                       Tracer, and a (shared, possibly null) journal sink. DebugPort,
//                       Deployment, and TargetExecutor all register their instruments
//                       here, so one registry describes one board end to end.
//   CampaignTelemetry — one per campaign: owns the per-board BoardTelemetry objects,
//                       the campaign-wide registry the scheduler instruments, the
//                       JSONL file sink behind --metrics-out, and the SnapshotEmitter.
//
// Counters are always live (they cost one relaxed atomic op and never touch the
// virtual clock or any RNG, so fuzzing results are bit-identical with telemetry on or
// off); the journal and periodic snapshots only exist when a metrics path was given.

#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/snapshot.h"
#include "src/telemetry/trace.h"

namespace eof {
namespace telemetry {

class BoardTelemetry {
 public:
  // `sink` may be null (metrics only, no journal) and must outlive this object.
  BoardTelemetry(int worker, uint64_t session_seed, EventSink* sink)
      : worker_(worker), sink_(sink), tracer_(&registry_, session_seed, worker, sink) {}

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  Tracer& tracer() { return tracer_; }
  EventSink* sink() const { return sink_; }
  int worker() const { return worker_; }

 private:
  int worker_;
  MetricsRegistry registry_;
  EventSink* sink_;
  Tracer tracer_;
};

class CampaignTelemetry {
 public:
  struct Options {
    std::string metrics_out;  // "" = no journal / no periodic snapshots
    VirtualDuration snapshot_interval = 30 * kVirtualSecond;
    VirtualDuration budget = 0;
    uint64_t seed = 1;
    int workers = 1;
    // Fleet plumbing; the defaults keep in-process journals byte-identical.
    std::string campaign_id;           // campaign_start "campaign" text when set
    std::vector<int> board_labels;     // global shard label per local board slot
                                       // (board seeds derive from the label, so a
                                       // shard keeps its stream on any worker)
    EventSink* shared_sink = nullptr;  // externally owned sink — a fleet worker's
                                       // journal spans lease batches; metrics_out
                                       // must be empty when set
    bool emit_farm_rows = true;        // fleet workers suppress farm_snapshot rows
    bool fleet = false;                // marks `eof serve` campaign_start rows
  };

  // Fails only when `metrics_out` is set but cannot be opened.
  static Result<std::unique_ptr<CampaignTelemetry>> Create(const Options& options);

  BoardTelemetry* board(int worker) { return boards_[static_cast<size_t>(worker)].get(); }
  int workers() const { return static_cast<int>(boards_.size()); }

  // The campaign-scope registry (scheduler counters) and journal sink; sink is null
  // when no metrics path was given.
  MetricsRegistry& campaign_registry() { return campaign_registry_; }
  EventSink* sink() { return external_sink_ != nullptr ? external_sink_ : sink_.get(); }

  // Arms the periodic emitter; call once, after the scheduler exists. `campaign`
  // snapshots the scheduler's registry for farm rows. No-op without a sink.
  void StartEmitter(std::function<MetricsSnapshot()> campaign);
  SnapshotEmitter* emitter() { return emitter_.get(); }

  // All per-board registries summed into one farm-wide snapshot (counters and
  // histograms sum; gauges take the max).
  MetricsSnapshot MergedBoardSnapshot() const;

  // Campaign lifecycle bookends in the journal.
  void CampaignStart(const std::string& os_name, const std::string& board_name);
  void CampaignEnd(VirtualTime elapsed);

  // Journal rows the bounded sink buffer has discarded so far (0 without a sink).
  // Campaign runners surface this in CampaignResult and warn at campaign end.
  uint64_t journal_dropped() const {
    if (external_sink_ != nullptr) {
      return external_sink_->dropped();
    }
    return sink_ == nullptr ? 0 : sink_->dropped();
  }

 private:
  explicit CampaignTelemetry(const Options& options);

  Options options_;
  std::unique_ptr<FileEventSink> sink_;
  EventSink* external_sink_ = nullptr;  // not owned (Options::shared_sink)
  MetricsRegistry campaign_registry_;
  std::vector<std::unique_ptr<BoardTelemetry>> boards_;
  std::unique_ptr<SnapshotEmitter> emitter_;
};

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_TELEMETRY_H_
