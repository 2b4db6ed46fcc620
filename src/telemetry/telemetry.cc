#include "src/telemetry/telemetry.h"

#include "src/common/hash.h"
#include "src/telemetry/rows.h"

namespace eof {
namespace telemetry {

CampaignTelemetry::CampaignTelemetry(const Options& options) : options_(options) {}

Result<std::unique_ptr<CampaignTelemetry>> CampaignTelemetry::Create(
    const Options& options) {
  auto telemetry = std::unique_ptr<CampaignTelemetry>(new CampaignTelemetry(options));
  if (options.shared_sink != nullptr) {
    if (!options.metrics_out.empty()) {
      return InvalidArgumentError(
          "CampaignTelemetry: shared_sink and metrics_out are mutually exclusive");
    }
    telemetry->external_sink_ = options.shared_sink;
  } else if (!options.metrics_out.empty()) {
    ASSIGN_OR_RETURN(telemetry->sink_, FileEventSink::Open(options.metrics_out));
  }
  int workers = std::max(options.workers, 1);
  telemetry->boards_.reserve(static_cast<size_t>(workers));
  for (int worker = 0; worker < workers; ++worker) {
    // Worker 0 keeps the base seed, others an FNV-derived stream — the same lane
    // rule the farm uses for its RNGs, so span ids line up with worker seeds.
    // With fleet labels the label picks the stream (not the local slot), so a
    // shard keeps its identity no matter which worker process runs it.
    int label = static_cast<size_t>(worker) < options.board_labels.size()
                    ? options.board_labels[static_cast<size_t>(worker)]
                    : worker;
    uint64_t seed = label == 0 ? options.seed
                               : DeriveSeedStream(options.seed,
                                                  static_cast<uint64_t>(label));
    telemetry->boards_.push_back(
        std::make_unique<BoardTelemetry>(label, seed, telemetry->sink()));
  }
  return telemetry;
}

void CampaignTelemetry::StartEmitter(std::function<MetricsSnapshot()> campaign) {
  if (sink() == nullptr || emitter_ != nullptr) {
    return;
  }
  std::vector<const MetricsRegistry*> registries;
  registries.reserve(boards_.size());
  for (const auto& board : boards_) {
    registries.push_back(&board->registry());
  }
  emitter_ = std::make_unique<SnapshotEmitter>(
      std::move(registries), std::move(campaign), sink(), options_.snapshot_interval,
      options_.budget, options_.board_labels, options_.emit_farm_rows);
}

MetricsSnapshot CampaignTelemetry::MergedBoardSnapshot() const {
  MetricsSnapshot merged;
  for (const auto& board : boards_) {
    merged.Merge(board->registry().Snapshot());
  }
  return merged;
}

void CampaignTelemetry::CampaignStart(const std::string& os_name,
                                      const std::string& board_name) {
  Journal(sink(), 0, -1, [&] {
    return CampaignStartRow{os_name, board_name.empty() ? "default" : board_name,
                            boards_.size(), options_.seed, options_.budget,
                            options_.snapshot_interval, options_.campaign_id,
                            options_.fleet ? 1u : 0u};
  });
}

void CampaignTelemetry::CampaignEnd(VirtualTime elapsed) {
  if (emitter_ != nullptr) {
    emitter_->Finish(elapsed);
  }
  if (sink() == nullptr) {
    return;
  }
  sink()->Emit(RowEvent(elapsed, -1, CampaignEndRow{sink()->dropped()}));
  sink()->Flush();
}

}  // namespace telemetry
}  // namespace eof
