#include "src/telemetry/snapshot.h"

#include <algorithm>

#include "src/telemetry/rows.h"

namespace eof {
namespace telemetry {

double PerVirtualSecond(uint64_t count, VirtualTime window) {
  if (window == 0) {
    return 0;
  }
  return static_cast<double>(count) * kVirtualSecond / static_cast<double>(window);
}

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

// Registries are sampled at emission time, which can run marginally ahead of the
// boundary stamp `at`: snapshots are "state as of crossing the boundary", not an
// exact integral.
void SnapshotEmitter::EmitBoardLocked(int worker, VirtualTime at) {
  BoardAccounting row = BoardColumnsOf(boards_[static_cast<size_t>(worker)]->Snapshot());
  row.execs_per_vsec = PerVirtualSecond(row.execs, at);
  int label = static_cast<size_t>(worker) < labels_.size()
                  ? labels_[static_cast<size_t>(worker)]
                  : worker;
  sink_->Emit(RowEvent(at, label, row));
}

void SnapshotEmitter::EmitFarmLocked(VirtualTime at) {
  MetricsSnapshot merged;
  for (const MetricsRegistry* board : boards_) {
    merged.Merge(board->Snapshot());
  }
  FarmSnapshotRow row;
  row.boards = boards_.size();
  row.board = BoardColumnsOf(merged);
  row.board.execs_per_vsec = PerVirtualSecond(row.board.execs, at);
  if (campaign_) {
    row.campaign = CampaignColumnsOf(campaign_());
  }
  row.journal_dropped = sink_->dropped();
  sink_->Emit(RowEvent(at, -1, row));
}

}  // namespace telemetry
}  // namespace eof
