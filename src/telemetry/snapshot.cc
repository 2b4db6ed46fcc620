#include "src/telemetry/snapshot.h"

#include <algorithm>

namespace eof {
namespace telemetry {

double PerVirtualSecond(uint64_t count, VirtualTime window) {
  if (window == 0) {
    return 0;
  }
  return static_cast<double>(count) * kVirtualSecond / static_cast<double>(window);
}

void AppendCampaignColumns(const MetricsSnapshot& campaign, Event* event) {
  // Campaign-global truths override the merged per-board approximations.
  event->fields.push_back(
      EventField::Uint("campaign_coverage", campaign.GaugeValue("campaign.coverage")));
  event->fields.push_back(EventField::Uint("corpus", campaign.GaugeValue("campaign.corpus")));
  event->fields.push_back(
      EventField::Uint("campaign_execs", campaign.CounterValue("campaign.execs")));
  event->fields.push_back(
      EventField::Uint("crashes", campaign.CounterValue("campaign.crashes")));
  event->fields.push_back(EventField::Uint("bugs", campaign.CounterValue("campaign.bugs")));
  event->fields.push_back(
      EventField::Uint("bugs_rejected", campaign.CounterValue("campaign.bugs_rejected")));
  event->fields.push_back(
      EventField::Uint("directed_hits", campaign.CounterValue("campaign.directed_hits")));
  event->fields.push_back(
      EventField::Uint("frontier", campaign.GaugeValue("campaign.frontier")));
  event->fields.push_back(EventField::Uint(
      "trim_removed_calls", campaign.CounterValue("campaign.trim_removed_calls")));
  event->fields.push_back(EventField::Uint(
      "trim_kept_calls", campaign.CounterValue("campaign.trim_kept_calls")));
}

namespace {

// Sum of a span histogram ("span.<name>_us"), 0 when the span never ran.
uint64_t SpanSum(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0 : it->second.sum;
}

// The per-board columns of a snapshot row. The registry is sampled at emission
// time, which can run marginally ahead of the boundary stamp `at` — snapshots are
// "state as of crossing the boundary", not an exact integral.
void AppendBoardColumns(const MetricsSnapshot& snapshot, VirtualTime at, Event* event) {
  uint64_t execs = snapshot.CounterValue("exec.execs");
  event->fields.push_back(EventField::Uint("execs", execs));
  event->fields.push_back(EventField::Real("execs_per_vsec", PerVirtualSecond(execs, at)));
  event->fields.push_back(
      EventField::Uint("coverage", snapshot.GaugeValue("exec.local_coverage")));
  event->fields.push_back(
      EventField::Uint("edges_drained", snapshot.CounterValue("exec.edges_drained")));
  event->fields.push_back(EventField::Uint(
      "overlapped_drains", snapshot.CounterValue("exec.overlapped_drains")));
  event->fields.push_back(EventField::Uint(
      "drain_overlap_saved_us", snapshot.CounterValue("exec.drain_overlap_saved_us")));
  event->fields.push_back(
      EventField::Uint("rejected", snapshot.CounterValue("exec.rejected")));
  event->fields.push_back(EventField::Uint("stalls", snapshot.CounterValue("exec.stalls")));
  event->fields.push_back(
      EventField::Uint("timeouts", snapshot.CounterValue("exec.timeouts")));
  event->fields.push_back(
      EventField::Uint("restores", snapshot.CounterValue("exec.restores")));
  event->fields.push_back(EventField::Uint(
      "snapshot_restores", snapshot.CounterValue("exec.snapshot_restores")));
  event->fields.push_back(EventField::Uint(
      "snapshot_bytes", snapshot.CounterValue("exec.snapshot_bytes")));
  event->fields.push_back(EventField::Uint("resets", snapshot.CounterValue("link.resets")));
  event->fields.push_back(
      EventField::Uint("warm_restores", snapshot.CounterValue("link.warm_restores")));
  event->fields.push_back(
      EventField::Uint("link_transactions", snapshot.CounterValue("link.transactions")));
  event->fields.push_back(
      EventField::Uint("link_batches", snapshot.CounterValue("link.batches")));
  event->fields.push_back(
      EventField::Uint("link_timeouts", snapshot.CounterValue("link.timeouts")));
  event->fields.push_back(
      EventField::Uint("flash_bytes", snapshot.CounterValue("link.flash_bytes")));
  event->fields.push_back(EventField::Uint(
      "flash_skipped_bytes", snapshot.CounterValue("link.flash_skipped_bytes")));
  // Where the board's virtual time went (sums of the tracer's span histograms):
  // running test cases, draining coverage, reflashing, recovering from watchdog
  // trips, and the one-off deploy. The `eof report` time-accounting table divides
  // these by the board clock.
  event->fields.push_back(
      EventField::Uint("exec_us", SpanSum(snapshot, "span.exec_continue_us")));
  event->fields.push_back(
      EventField::Uint("drain_us", SpanSum(snapshot, "span.coverage_drain_us")));
  event->fields.push_back(
      EventField::Uint("reflash_us", SpanSum(snapshot, "span.reflash_us")));
  event->fields.push_back(
      EventField::Uint("recovery_us", SpanSum(snapshot, "span.watchdog_recovery_us")));
  event->fields.push_back(
      EventField::Uint("deploy_us", SpanSum(snapshot, "span.deploy_us")));
}

}  // namespace

SnapshotEmitter::SnapshotEmitter(std::vector<const MetricsRegistry*> boards,
                                 std::function<MetricsSnapshot()> campaign,
                                 EventSink* sink,
                                 VirtualDuration interval, VirtualDuration budget,
                                 std::vector<int> labels, bool emit_farm_rows)
    : boards_(std::move(boards)),
      campaign_(std::move(campaign)),
      sink_(sink),
      interval_(interval),
      budget_(budget),
      labels_(std::move(labels)),
      emit_farm_rows_(emit_farm_rows),
      elapsed_(boards_.size(), 0),
      next_board_(boards_.size(), interval),
      done_(boards_.size(), false),
      next_farm_(interval) {}

void SnapshotEmitter::MaybeEmit(int worker, VirtualTime elapsed) {
  if (sink_ == nullptr || interval_ == 0) {
    return;
  }
  size_t slot = static_cast<size_t>(worker);
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= boards_.size()) {
    return;
  }
  elapsed_[slot] = std::max(elapsed_[slot], elapsed);
  while (next_board_[slot] <= budget_ && elapsed_[slot] >= next_board_[slot]) {
    EmitBoardLocked(worker, next_board_[slot]);
    next_board_[slot] += interval_;
  }
  VirtualTime frontier = FrontierLocked();
  while (emit_farm_rows_ && next_farm_ <= budget_ && frontier >= next_farm_) {
    EmitFarmLocked(next_farm_);
    next_farm_ += interval_;
  }
}

void SnapshotEmitter::WorkerDone(int worker, VirtualTime elapsed) {
  if (sink_ == nullptr || interval_ == 0) {
    return;
  }
  size_t slot = static_cast<size_t>(worker);
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= boards_.size()) {
    return;
  }
  done_[slot] = true;
  elapsed_[slot] = std::max(elapsed_[slot], elapsed);
  if (elapsed_[slot] > 0) {
    // Closing board row: the session's final counters at its final clock.
    EmitBoardLocked(worker, elapsed_[slot]);
  }
  VirtualTime frontier = FrontierLocked();
  while (emit_farm_rows_ && next_farm_ <= budget_ && frontier >= next_farm_) {
    EmitFarmLocked(next_farm_);
    next_farm_ += interval_;
  }
}

void SnapshotEmitter::Finish(VirtualTime elapsed) {
  if (sink_ == nullptr) {
    return;
  }
  if (emit_farm_rows_) {
    std::lock_guard<std::mutex> lock(mu_);
    EmitFarmLocked(elapsed);
  }
  sink_->Flush();
}

VirtualTime SnapshotEmitter::FrontierLocked() const {
  VirtualTime frontier = budget_;
  for (size_t i = 0; i < elapsed_.size(); ++i) {
    if (!done_[i]) {
      frontier = std::min(frontier, elapsed_[i]);
    }
  }
  return frontier;
}

void SnapshotEmitter::EmitBoardLocked(int worker, VirtualTime at) {
  Event event;
  event.at = at;
  event.type = "board_snapshot";
  event.worker = static_cast<size_t>(worker) < labels_.size()
                     ? labels_[static_cast<size_t>(worker)]
                     : worker;
  AppendBoardColumns(boards_[static_cast<size_t>(worker)]->Snapshot(), at, &event);
  sink_->Emit(event);
}

void SnapshotEmitter::EmitFarmLocked(VirtualTime at) {
  MetricsSnapshot merged;
  for (const MetricsRegistry* board : boards_) {
    merged.Merge(board->Snapshot());
  }
  Event event;
  event.at = at;
  event.type = "farm_snapshot";
  event.fields.push_back(EventField::Uint("boards", boards_.size()));
  AppendBoardColumns(merged, at, &event);
  if (campaign_) {
    AppendCampaignColumns(campaign_(), &event);
  }
  event.fields.push_back(EventField::Uint("journal_dropped", sink_->dropped()));
  sink_->Emit(event);
}

}  // namespace telemetry
}  // namespace eof
