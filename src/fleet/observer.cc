#include "src/fleet/observer.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/telemetry/prometheus.h"

namespace eof {
namespace fleet {

Result<StatusReplyMsg> FetchStatus(Transport* transport,
                                   const std::string& campaign_id,
                                   bool include_shards, int timeout_ms) {
  StatusRequestMsg request;
  request.campaign_id = campaign_id;
  request.include_shards = include_shards ? 1 : 0;
  Frame frame;
  frame.type = MsgType::kStatusRequest;
  frame.payload = Encode(request);
  RETURN_IF_ERROR(transport->Send(frame));
  ASSIGN_OR_RETURN(Frame reply, transport->Recv(timeout_ms));
  if (reply.type != MsgType::kStatusReply) {
    return DataLossError(StrFormat("expected StatusReply, got message type %u",
                                   static_cast<unsigned>(reply.type)));
  }
  ASSIGN_OR_RETURN(StatusReplyMsg status, DecodeStatusReply(reply.payload));
  Frame goodbye;
  goodbye.type = MsgType::kGoodbye;
  goodbye.payload = Encode(GoodbyeMsg{});  // observers have no worker id
  (void)transport->Send(goodbye);  // best effort; the poll already succeeded
  return status;
}

namespace {

const char* PhaseName(ShardPhase phase) {
  switch (phase) {
    case ShardPhase::kPending: return "pending";
    case ShardPhase::kLeased: return "leased";
    case ShardPhase::kDone: return "done";
  }
  return "?";
}

const CampaignStatusWire* FindCampaign(const StatusReplyMsg& reply,
                                       const std::string& id) {
  for (const CampaignStatusWire& campaign : reply.campaigns) {
    if (campaign.campaign_id == id) {
      return &campaign;
    }
  }
  return nullptr;
}

// Exec rates between successive polls of one campaign, in execs per server
// second. history is oldest-first; returns one rate per adjacent pair.
std::vector<double> ExecRates(const std::vector<StatusReplyMsg>& history,
                              const std::string& campaign_id) {
  std::vector<double> rates;
  for (size_t i = 1; i < history.size(); ++i) {
    const CampaignStatusWire* prev = FindCampaign(history[i - 1], campaign_id);
    const CampaignStatusWire* next = FindCampaign(history[i], campaign_id);
    if (prev == nullptr || next == nullptr) {
      continue;
    }
    uint64_t dt_ms = history[i].server_ms > history[i - 1].server_ms
                         ? history[i].server_ms - history[i - 1].server_ms
                         : 0;
    uint64_t prev_execs = prev->metrics.CounterValue("fleet.campaign.execs");
    uint64_t next_execs = next->metrics.CounterValue("fleet.campaign.execs");
    uint64_t dx = next_execs > prev_execs ? next_execs - prev_execs : 0;
    rates.push_back(dt_ms == 0 ? 0.0 : 1000.0 * static_cast<double>(dx) /
                                           static_cast<double>(dt_ms));
  }
  return rates;
}

// Unicode block sparkline scaled to the window's max rate.
std::string Sparkline(const std::vector<double>& rates) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (rates.empty()) {
    return "";
  }
  double max_rate = *std::max_element(rates.begin(), rates.end());
  std::string out;
  for (double rate : rates) {
    if (max_rate <= 0) {
      out += kLevels[0];
      continue;
    }
    int level = static_cast<int>(rate / max_rate * 7.0 + 0.5);
    out += kLevels[std::clamp(level, 0, 7)];
  }
  return out;
}

// Coverage unchanged across the last `need` polls (with at least that many
// polls in the window) — the live plateau highlight.
bool CoveragePlateaued(const std::vector<StatusReplyMsg>& history,
                       const std::string& campaign_id, size_t need) {
  if (history.size() < need) {
    return false;
  }
  const CampaignStatusWire* last =
      FindCampaign(history.back(), campaign_id);
  if (last == nullptr) {
    return false;
  }
  uint64_t coverage = last->metrics.GaugeValue("fleet.campaign.coverage");
  for (size_t i = history.size() - need; i < history.size(); ++i) {
    const CampaignStatusWire* campaign = FindCampaign(history[i], campaign_id);
    if (campaign == nullptr ||
        campaign->metrics.GaugeValue("fleet.campaign.coverage") != coverage) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string RenderTopFrame(const std::vector<StatusReplyMsg>& history) {
  if (history.empty()) {
    return "eof top | no status yet\n";
  }
  const StatusReplyMsg& now = history.back();
  uint64_t age_ms =
      now.server_ms > now.assembled_ms ? now.server_ms - now.assembled_ms : 0;
  std::string out = StrFormat(
      "eof top | server t=%llums | snapshot age %llums (bound %llums) | "
      "campaigns %zu | workers %zu\n",
      static_cast<unsigned long long>(now.server_ms),
      static_cast<unsigned long long>(age_ms),
      static_cast<unsigned long long>(now.heartbeat_interval_ms),
      now.campaigns.size(), now.workers.size());
  for (const CampaignStatusWire& campaign : now.campaigns) {
    auto counter = [&](const char* name) {
      return static_cast<unsigned long long>(campaign.metrics.CounterValue(name));
    };
    auto gauge = [&](const char* name) {
      return static_cast<unsigned long long>(campaign.metrics.GaugeValue(name));
    };
    out += StrFormat("campaign %s %s/%s | budget %.1fs%s\n",
                     campaign.campaign_id.c_str(), campaign.os_name.c_str(),
                     campaign.board_name.c_str(),
                     static_cast<double>(campaign.budget_us) / 1e6,
                     campaign.finalized != 0 ? " | FINALIZED" : "");
    out += StrFormat(
        "  shards %u: %u pending / %u leased / %u done | frontier %.2fs\n",
        campaign.shards_total, campaign.shards_pending, campaign.shards_leased,
        campaign.shards_done,
        static_cast<double>(gauge("fleet.campaign.frontier_us")) / 1e6);
    out += StrFormat(
        "  coverage %llu | corpus %llu | execs %llu | crashes %llu | bugs %zu\n",
        gauge("fleet.campaign.coverage"), gauge("fleet.campaign.corpus"),
        counter("fleet.campaign.execs"), counter("fleet.campaign.crashes"),
        campaign.bugs.size());
    out += StrFormat(
        "  leases granted %llu reclaimed %llu | rejected uploads %llu | "
        "workers lost %llu | corpus syncs %llu\n",
        counter("fleet.leases_granted"), counter("fleet.leases_reclaimed"),
        counter("fleet.rejected_uploads"), counter("fleet.workers_lost"),
        counter("fleet.corpus_syncs"));
    out += StrFormat(
        "  journal drops: orchestrator %llu, workers %llu\n",
        static_cast<unsigned long long>(campaign.journal_dropped),
        static_cast<unsigned long long>(campaign.journal_dropped_workers));
    std::vector<double> rates = ExecRates(history, campaign.campaign_id);
    std::string line = "  rate ";
    line += rates.empty() ? std::string("n/a")
                          : StrFormat("%.1f execs/s", rates.back());
    std::string spark = Sparkline(rates);
    if (!spark.empty()) {
      line += StrFormat("  [%s]", spark.c_str());
    }
    if (CoveragePlateaued(history, campaign.campaign_id, 3)) {
      line += "  PLATEAU";
    }
    out += line + "\n";
    if (!campaign.shards.empty()) {
      out += "  shard  phase    worker  attempt  execs        elapsed_s\n";
      for (const ShardState& shard : campaign.shards) {
        out += StrFormat("  %5u  %-7s  %6u  %7u  %-11llu  %.2f\n", shard.shard,
                         PhaseName(shard.phase), shard.worker, shard.attempt,
                         static_cast<unsigned long long>(shard.execs),
                         static_cast<double>(shard.elapsed_us) / 1e6);
      }
    }
    for (const BugStatusWire& bug : campaign.bugs) {
      out += StrFormat("  bug %u %s/%s board %u t=%.2fs \"%s\"\n",
                       bug.catalog_id, bug.detector.c_str(), bug.kind.c_str(),
                       bug.board, static_cast<double>(bug.at_us) / 1e6,
                       bug.excerpt.c_str());
    }
  }
  if (!now.workers.empty()) {
    out += "workers:\n";
    out += "  id  name              leases  execs        syncs  dropped  "
           "sync_age_ms\n";
    for (const WorkerStatusWire& worker : now.workers) {
      uint64_t sync_age = now.server_ms > worker.last_seen_ms
                              ? now.server_ms - worker.last_seen_ms
                              : 0;
      std::string flags;
      if (worker.lost != 0) {
        flags += " LOST";
      } else if (sync_age > 3 * now.heartbeat_interval_ms) {
        flags += " STALLED";
      }
      out += StrFormat("  %2u  %-16s  %6llu  %-11llu  %5llu  %7llu  %-11llu%s\n",
                       worker.worker_id, worker.name.c_str(),
                       static_cast<unsigned long long>(worker.leases),
                       static_cast<unsigned long long>(worker.execs),
                       static_cast<unsigned long long>(worker.syncs),
                       static_cast<unsigned long long>(worker.journal_dropped),
                       static_cast<unsigned long long>(sync_age), flags.c_str());
    }
  }
  return out;
}

std::string RenderFleetMetrics(const StatusReplyMsg& status,
                               const telemetry::MetricsSnapshot& orchestrator) {
  // Every family is an instrument name in one labelled snapshot; PrometheusName
  // maps "fleet.campaign.coverage" to eof_fleet_campaign_coverage.
  std::vector<telemetry::LabelledSnapshot> series;
  for (const CampaignStatusWire& campaign : status.campaigns) {
    telemetry::PrometheusLabels labels = {{"campaign", campaign.campaign_id}};
    telemetry::MetricsSnapshot metrics = campaign.metrics;
    metrics.gauges["fleet.campaign.bugs"] = campaign.bugs.size();
    metrics.gauges["fleet.campaign.budget_us"] = campaign.budget_us;
    metrics.gauges["fleet.campaign.finalized"] = campaign.finalized;
    series.push_back({labels, std::move(metrics)});
    const std::pair<const char*, uint32_t> phases[] = {
        {"pending", campaign.shards_pending},
        {"leased", campaign.shards_leased},
        {"done", campaign.shards_done}};
    for (const auto& [phase, count] : phases) {
      telemetry::LabelledSnapshot shards{labels, {}};
      shards.labels.emplace_back("phase", phase);
      shards.snapshot.gauges["fleet.shards"] = count;
      series.push_back(std::move(shards));
    }
    // Per-sink drop attribution: the orchestrator's own sink and the summed
    // worker sinks, plus the per-worker breakdown below.
    const std::pair<const char*, uint64_t> sinks[] = {
        {"orchestrator", campaign.journal_dropped},
        {"workers", campaign.journal_dropped_workers}};
    for (const auto& [sink, dropped] : sinks) {
      telemetry::LabelledSnapshot drops{labels, {}};
      drops.labels.emplace_back("sink", sink);
      drops.snapshot.counters["fleet.journal_dropped"] = dropped;
      series.push_back(std::move(drops));
    }
  }
  for (const WorkerStatusWire& worker : status.workers) {
    telemetry::LabelledSnapshot row{
        {{"worker", worker.name}, {"id", StrFormat("%u", worker.worker_id)}}, {}};
    row.snapshot.counters = {{"fleet.worker.execs", worker.execs},
                             {"fleet.worker.syncs", worker.syncs},
                             {"fleet.worker.journal_dropped", worker.journal_dropped}};
    row.snapshot.gauges = {{"fleet.worker.leases", worker.leases},
                           {"fleet.worker.lost", worker.lost},
                           {"fleet.worker.last_seen_ms", worker.last_seen_ms}};
    series.push_back(std::move(row));
  }
  // The orchestrator's own registry, with the snapshot's clock readings.
  telemetry::LabelledSnapshot server{{}, orchestrator};
  server.snapshot.gauges["fleet.server_ms"] = status.server_ms;
  server.snapshot.gauges["fleet.snapshot_age_ms"] =
      status.server_ms > status.assembled_ms ? status.server_ms - status.assembled_ms
                                             : 0;
  server.snapshot.gauges["fleet.heartbeat_interval_ms"] = status.heartbeat_interval_ms;
  series.push_back(std::move(server));
  return telemetry::RenderPrometheus(series);
}

}  // namespace fleet
}  // namespace eof
