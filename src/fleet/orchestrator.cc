#include "src/fleet/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/coverage_serial.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/telemetry/snapshot.h"

namespace eof {
namespace fleet {

namespace {

std::string BugKey(uint32_t catalog_id, const std::string& excerpt) {
  return StrFormat("%u|%s", catalog_id, excerpt.c_str());
}

// The per-campaign fleet.* counters, registered when the campaign is added so
// status and /metrics show each one from zero.
constexpr const char* kCampaignCounters[] = {
    "fleet.leases_granted", "fleet.leases_reclaimed", "fleet.rejected_uploads",
    "fleet.workers_lost", "fleet.corpus_syncs"};

// Every CampaignResult scalar a worker's final (or a merge of finals) carries.
CampaignResult ResultFromMetrics(const telemetry::MetricsSnapshot& metrics) {
  CampaignResult result;
  SetResultScalars(metrics, ExecStatsFromSnapshot(metrics),
                   DebugPortStatsFromSnapshot(metrics), &result);
  return result;
}

}  // namespace

Orchestrator::Orchestrator(Options options) : options_(std::move(options)) {
  status_requests_ = metrics_.RegisterCounter("fleet.status_requests");
  sync_frames_ = metrics_.RegisterCounter("fleet.sync_frames");
  sync_payload_bytes_ = metrics_.RegisterHistogram(
      "fleet.sync_payload_bytes",
      {256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304});
}

Result<std::unique_ptr<Orchestrator>> Orchestrator::Create(Options options) {
  if (options.board_pool < 1) {
    return InvalidArgumentError("Orchestrator: board_pool must be positive");
  }
  if (options.heartbeat_interval_ms == 0 || options.lease_timeout_ms == 0) {
    return InvalidArgumentError(
        "Orchestrator: heartbeat and lease timeouts must be positive");
  }
  if (options.lease_timeout_ms <= options.heartbeat_interval_ms) {
    return InvalidArgumentError(
        "Orchestrator: lease timeout must exceed the heartbeat interval");
  }
  if (!options.metrics_out.empty() && options.sink != nullptr) {
    return InvalidArgumentError(
        "Orchestrator: metrics_out and sink are mutually exclusive");
  }
  auto orchestrator = std::unique_ptr<Orchestrator>(new Orchestrator(std::move(options)));
  if (!orchestrator->options_.metrics_out.empty()) {
    // Unbuffered: the fleet journal is the service's live operational log
    // (lease lifecycle, worker loss), low-rate and tailed while serving —
    // unlike board telemetry, which buys buffering with its row rate.
    if (orchestrator->options_.journal_rotate_bytes > 0) {
      ASSIGN_OR_RETURN(
          orchestrator->file_sink_,
          telemetry::RotatingFileEventSink::Open(
              orchestrator->options_.metrics_out,
              orchestrator->options_.journal_rotate_bytes, /*buffer_lines=*/1));
    } else {
      ASSIGN_OR_RETURN(
          orchestrator->file_sink_,
          telemetry::FileEventSink::Open(orchestrator->options_.metrics_out,
                                         /*buffer_lines=*/1));
    }
  }
  return orchestrator;
}

uint64_t Orchestrator::NowMs() const {
  if (options_.clock_ms) {
    return options_.clock_ms();
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

telemetry::EventSink* Orchestrator::sink() const {
  if (options_.sink != nullptr) {
    return options_.sink;
  }
  return file_sink_.get();
}

void Orchestrator::EmitLocked(VirtualTime at, const char* type, int worker,
                              std::vector<telemetry::EventField> fields) {
  telemetry::EventSink* out = sink();
  if (out == nullptr) {
    return;
  }
  telemetry::Event event;
  event.at = at;
  event.type = type;
  event.worker = worker;
  event.fields = std::move(fields);
  out->Emit(event);
}

Status Orchestrator::AddCampaign(const FleetCampaignSpec& spec) {
  if (spec.campaign_id.empty()) {
    return InvalidArgumentError("AddCampaign: campaign_id must be non-empty");
  }
  if (spec.shards < 1) {
    return InvalidArgumentError("AddCampaign: shards must be positive");
  }
  if (spec.weight < 1) {
    return InvalidArgumentError("AddCampaign: weight must be positive");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (FindCampaignLocked(spec.campaign_id) != nullptr) {
    return AlreadyExistsError(
        StrFormat("AddCampaign: duplicate campaign id '%s'", spec.campaign_id.c_str()));
  }
  auto campaign = std::make_unique<CampaignState>();
  campaign->spec = spec;
  campaign->wire =
      ToWireConfig(spec.config, spec.campaign_id, static_cast<uint32_t>(spec.shards));
  campaign->shards.resize(static_cast<size_t>(spec.shards));
  for (const char* name : kCampaignCounters) {
    campaign->metrics.RegisterCounter(name);
  }
  // The orchestrator's campaign_start mirrors the in-process row (so `eof
  // report` reads the same envelope) with the fleet markers appended last.
  EmitLocked(0, "campaign_start", -1,
             {telemetry::EventField::Text("os", spec.config.os_name),
              telemetry::EventField::Text("board", spec.config.board_name.empty()
                                                       ? "default"
                                                       : spec.config.board_name),
              telemetry::EventField::Uint("workers", static_cast<uint64_t>(spec.shards)),
              telemetry::EventField::Uint("seed", spec.config.seed),
              telemetry::EventField::Uint("budget_us", spec.config.budget),
              telemetry::EventField::Uint("interval_us", spec.config.metrics_interval),
              telemetry::EventField::Text("campaign", spec.campaign_id),
              telemetry::EventField::Uint("fleet", 1)});
  campaigns_.push_back(std::move(campaign));
  return OkStatus();
}

Orchestrator::CampaignState* Orchestrator::FindCampaignLocked(
    const std::string& campaign_id) {
  for (auto& campaign : campaigns_) {
    if (campaign->spec.campaign_id == campaign_id) {
      return campaign.get();
    }
  }
  return nullptr;
}

bool Orchestrator::CampaignDoneLocked(const CampaignState& campaign) const {
  for (const ShardState& shard : campaign.shards) {
    if (shard.phase != ShardPhase::kDone) {
      return false;
    }
  }
  return true;
}

bool Orchestrator::AllDoneLocked() const {
  for (const auto& campaign : campaigns_) {
    if (!CampaignDoneLocked(*campaign)) {
      return false;
    }
  }
  return true;
}

bool Orchestrator::AllCampaignsDone() const {
  std::lock_guard<std::mutex> lock(mu_);
  return AllDoneLocked();
}

int Orchestrator::CompletedShards(const std::string& campaign_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& campaign : campaigns_) {
    if (campaign->spec.campaign_id != campaign_id) {
      continue;
    }
    int done = 0;
    for (const ShardState& shard : campaign->shards) {
      if (shard.phase == ShardPhase::kDone) {
        ++done;
      }
    }
    return done;
  }
  return -1;
}

size_t Orchestrator::ActiveLeasesLocked(const CampaignState& campaign) const {
  size_t active = 0;
  for (const ShardState& shard : campaign.shards) {
    if (shard.phase == ShardPhase::kLeased) {
      ++active;
    }
  }
  return active;
}

size_t Orchestrator::TotalActiveLeasesLocked() const {
  size_t active = 0;
  for (const auto& campaign : campaigns_) {
    active += ActiveLeasesLocked(*campaign);
  }
  return active;
}

void Orchestrator::ReapExpiredLeases() {
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked();
}

void Orchestrator::ReapLocked() {
  uint64_t now = NowMs();
  for (auto& campaign : campaigns_) {
    if (campaign->finalized) {
      continue;
    }
    std::set<uint32_t> reclaimed_from;
    for (size_t i = 0; i < campaign->shards.size(); ++i) {
      ShardState& shard = campaign->shards[i];
      if (shard.phase != ShardPhase::kLeased || now <= shard.deadline_ms) {
        continue;
      }
      reclaimed_from.insert(shard.worker);
      shard.phase = ShardPhase::kPending;
      campaign->metrics.RegisterCounter("fleet.leases_reclaimed")->Increment();
      EmitLocked(campaign->snapshot_at_us, "lease_reclaim",
                 static_cast<int>(shard.worker),
                 {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
                  telemetry::EventField::Uint("lease", shard.lease_id),
                  telemetry::EventField::Uint("shard", i),
                  telemetry::EventField::Uint("attempt", shard.attempt)});
      shard.lease_id = 0;
    }
    for (uint32_t worker : reclaimed_from) {
      auto it = workers_.find(worker);
      if (it != workers_.end() && !it->second.lost) {
        it->second.lost = true;
        campaign->metrics.RegisterCounter("fleet.workers_lost")->Increment();
        EmitLocked(campaign->snapshot_at_us, "worker_lost", static_cast<int>(worker),
                   {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
                    telemetry::EventField::Text("name", it->second.name)});
      }
    }
  }
}

HelloAckMsg Orchestrator::HandleHello(const HelloMsg& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  HelloAckMsg ack;
  ack.worker_id = next_worker_id_++;
  ack.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  ack.lease_timeout_ms = options_.lease_timeout_ms;
  WorkerInfo info;
  info.name = msg.worker_name;
  info.last_seen_ms = NowMs();
  workers_[ack.worker_id] = std::move(info);
  return ack;
}

Frame Orchestrator::HandleLeaseRequest(const LeaseRequestMsg& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked();

  Frame no_work;
  no_work.type = MsgType::kNoWork;
  NoWorkMsg idle;
  idle.campaign_done = AllDoneLocked() ? 1 : 0;
  idle.retry_ms = options_.heartbeat_interval_ms;
  no_work.payload = Encode(idle);

  auto worker_it = workers_.find(msg.worker_id);
  if (worker_it == workers_.end() || msg.capacity == 0) {
    return no_work;
  }
  worker_it->second.last_seen_ms = NowMs();
  worker_it->second.lost = false;  // a rejoining worker is a worker again

  // Weighted fair share: the campaign with pending work whose active-lease
  // count is smallest relative to its weight wins; earlier registration breaks
  // ties.
  CampaignState* best = nullptr;
  for (auto& campaign : campaigns_) {
    bool pending = false;
    for (const ShardState& shard : campaign->shards) {
      if (shard.phase == ShardPhase::kPending) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      continue;
    }
    if (best == nullptr ||
        ActiveLeasesLocked(*campaign) * static_cast<size_t>(best->spec.weight) <
            ActiveLeasesLocked(*best) * static_cast<size_t>(campaign->spec.weight)) {
      best = campaign.get();
    }
  }
  if (best == nullptr) {
    return no_work;
  }
  size_t pool_left =
      static_cast<size_t>(options_.board_pool) > TotalActiveLeasesLocked()
          ? static_cast<size_t>(options_.board_pool) - TotalActiveLeasesLocked()
          : 0;
  size_t want = std::min<size_t>(msg.capacity, pool_left);
  if (want == 0) {
    return no_work;
  }

  LeaseGrantMsg grant;
  grant.config = best->wire;
  uint64_t now = NowMs();
  for (size_t i = 0; i < best->shards.size() && grant.leases.size() < want; ++i) {
    ShardState& shard = best->shards[i];
    if (shard.phase != ShardPhase::kPending) {
      continue;
    }
    shard.phase = ShardPhase::kLeased;
    shard.lease_id = next_lease_id_++;
    shard.worker = msg.worker_id;
    shard.deadline_ms = now + options_.lease_timeout_ms;
    ++shard.attempt;
    ShardLease lease;
    lease.lease_id = shard.lease_id;
    lease.shard = static_cast<uint32_t>(i);
    lease.attempt = shard.attempt;
    grant.leases.push_back(lease);
    best->metrics.RegisterCounter("fleet.leases_granted")->Increment();
    EmitLocked(best->snapshot_at_us, "lease_grant", static_cast<int>(msg.worker_id),
               {telemetry::EventField::Text("campaign", best->spec.campaign_id),
                telemetry::EventField::Uint("lease", lease.lease_id),
                telemetry::EventField::Uint("shard", lease.shard),
                telemetry::EventField::Uint("attempt", lease.attempt)});
  }
  best->workers_served.insert(msg.worker_id);

  // The grant carries the full merged campaign state — this is the crash/rejoin
  // resync path as much as the cold-start one.
  grant.coverage = SerializeCoverage(best->coverage);
  grant.corpus = best->corpus;
  WorkerCursor& cursor = best->cursors[msg.worker_id];
  cursor.edge = best->edge_log.size();
  cursor.corpus = best->corpus.size();

  Frame frame;
  frame.type = MsgType::kLeaseGrant;
  frame.payload = Encode(grant);
  return frame;
}

void Orchestrator::MergeCoverageLocked(CampaignState* campaign,
                                       const std::vector<uint8_t>& blob) {
  if (blob.empty()) {
    return;
  }
  Result<DecodedCoverage> decoded = DecodeCoverage(blob);
  if (!decoded.ok()) {
    campaign->metrics.RegisterCounter("fleet.rejected_uploads")->Increment();
    return;
  }
  for (uint64_t id : decoded.value().ids) {
    if (campaign->coverage.Add(id)) {
      campaign->edge_log.push_back(id);
    }
  }
}

void Orchestrator::AdmitCorpusLocked(CampaignState* campaign, uint32_t worker,
                                     const std::vector<CorpusEntryWire>& entries) {
  size_t admitted = 0;
  for (const CorpusEntryWire& entry : entries) {
    uint64_t hash = Fnv1a(entry.text);
    if (!campaign->corpus_hashes.insert(hash).second) {
      continue;
    }
    campaign->corpus.push_back(entry);
    campaign->corpus_origin.push_back(worker);
    ++admitted;
  }
  if (admitted > 0) {
    campaign->metrics.RegisterCounter("fleet.corpus_syncs")->Increment();
    EmitLocked(campaign->snapshot_at_us, "corpus_sync", static_cast<int>(worker),
               {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
                telemetry::EventField::Uint("programs", admitted),
                telemetry::EventField::Uint("corpus", campaign->corpus.size())});
  }
}

void Orchestrator::AdmitBugsLocked(CampaignState* campaign,
                                   const std::vector<BugWire>& bugs) {
  for (const BugWire& bug : bugs) {
    if (!campaign->bug_keys.insert(BugKey(bug.catalog_id, bug.excerpt)).second) {
      continue;  // another shard already reported this signature
    }
    campaign->bugs.push_back(bug);
  }
}

SyncAckMsg Orchestrator::HandleSync(const SyncMsg& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncAckMsg ack;
  auto worker_it = workers_.find(msg.worker_id);
  if (worker_it == workers_.end()) {
    ack.accepted = 0;
    return ack;
  }
  worker_it->second.last_seen_ms = NowMs();
  worker_it->second.lost = false;
  ++worker_it->second.syncs;
  worker_it->second.journal_dropped =
      std::max(worker_it->second.journal_dropped, msg.journal_dropped);
  CampaignState* campaign = FindCampaignLocked(msg.campaign_id);
  if (campaign == nullptr) {
    ack.accepted = 0;
    return ack;
  }
  uint64_t& dropped = campaign->worker_dropped[msg.worker_id];
  dropped = std::max(dropped, msg.journal_dropped);

  uint64_t deadline = NowMs() + options_.lease_timeout_ms;
  uint64_t sync_execs = 0;
  for (const ShardProgressWire& progress : msg.shards) {
    size_t index = progress.shard;
    if (index >= campaign->shards.size() ||
        campaign->shards[index].phase != ShardPhase::kLeased ||
        campaign->shards[index].lease_id != progress.lease_id) {
      // The lease moved on (reclaimed and possibly re-granted elsewhere): the
      // worker must stop fuzzing this shard; its uploads stay (idempotent).
      ack.revoked.push_back(progress.lease_id);
      continue;
    }
    ShardState& shard = campaign->shards[index];
    shard.elapsed_us = std::max(shard.elapsed_us, progress.elapsed_us);
    shard.execs = progress.execs;
    shard.deadline_ms = deadline;
    sync_execs += progress.execs;
    if (progress.completed != 0) {
      shard.phase = ShardPhase::kDone;
      EmitLocked(shard.elapsed_us, "lease_complete", static_cast<int>(msg.worker_id),
                 {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
                  telemetry::EventField::Uint("lease", progress.lease_id),
                  telemetry::EventField::Uint("shard", index),
                  telemetry::EventField::Uint("execs", progress.execs)});
    }
  }

  MergeCoverageLocked(campaign, msg.coverage_delta);
  AdmitCorpusLocked(campaign, msg.worker_id, msg.corpus);
  AdmitBugsLocked(campaign, msg.bugs);

  WorkerCursor& cursor = campaign->cursors[msg.worker_id];
  // Downstream news: everything merged since this worker's last grant/ack,
  // minus its own corpus contributions (coverage replays are idempotent, so the
  // edge stream is not origin-filtered).
  if (cursor.edge < campaign->edge_log.size()) {
    std::vector<uint64_t> fresh(campaign->edge_log.begin() +
                                    static_cast<ptrdiff_t>(cursor.edge),
                                campaign->edge_log.end());
    ack.coverage_delta = SerializeCoverageIds(std::move(fresh), CoverageWireKind::kDiff);
  }
  for (size_t i = cursor.corpus; i < campaign->corpus.size(); ++i) {
    if (campaign->corpus_origin[i] != msg.worker_id) {
      ack.corpus.push_back(campaign->corpus[i]);
    }
  }
  cursor.edge = campaign->edge_log.size();
  cursor.corpus = campaign->corpus.size();
  ack.campaign_done = CampaignDoneLocked(*campaign) ? 1 : 0;

  worker_it->second.execs_live = sync_execs;
  EmitLocked(campaign->snapshot_at_us, "heartbeat", static_cast<int>(msg.worker_id),
             {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
              telemetry::EventField::Uint("seq", msg.seq),
              telemetry::EventField::Uint("leases", msg.shards.size()),
              telemetry::EventField::Uint("execs", sync_execs)});

  // Farm row at the campaign frontier: the slowest still-running shard (or the
  // slowest overall once everything finished), monotone by construction.
  EmitFarmRowLocked(campaign, FrontierLocked(*campaign));
  return ack;
}

uint64_t Orchestrator::FrontierLocked(const CampaignState& campaign) const {
  uint64_t frontier = 0;
  bool any_active = false;
  for (const ShardState& shard : campaign.shards) {
    if (shard.phase == ShardPhase::kLeased) {
      frontier = any_active ? std::min(frontier, shard.elapsed_us) : shard.elapsed_us;
      any_active = true;
    }
  }
  if (!any_active) {
    for (const ShardState& shard : campaign.shards) {
      frontier = std::max(frontier, shard.elapsed_us);
    }
  }
  return frontier;
}

FinalAckMsg Orchestrator::HandleFinal(const WorkerFinalMsg& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  FinalAckMsg ack;
  auto worker_it = workers_.find(msg.worker_id);
  CampaignState* campaign = FindCampaignLocked(msg.campaign_id);
  if (worker_it == workers_.end() || campaign == nullptr) {
    ack.accepted = 0;
    return ack;
  }
  worker_it->second.last_seen_ms = NowMs();
  if (!campaign->finals_seen.insert({msg.worker_id, msg.seq}).second) {
    return ack;  // duplicate upload: acknowledge, count nothing twice
  }
  campaign->final_metrics.Merge(msg.metrics);
  campaign->final_series = msg.series;
  campaign->workers_served.insert(msg.worker_id);
  CampaignResult batch = ResultFromMetrics(msg.metrics);
  worker_it->second.execs_final += batch.execs;
  worker_it->second.execs_live = 0;  // the batch folded into finals
  worker_it->second.journal_dropped =
      std::max(worker_it->second.journal_dropped, msg.journal_dropped);
  uint64_t& dropped = campaign->worker_dropped[msg.worker_id];
  dropped = std::max(dropped, msg.journal_dropped);
  EmitLocked(msg.elapsed_us, "worker_final", static_cast<int>(msg.worker_id),
             {telemetry::EventField::Text("campaign", campaign->spec.campaign_id),
              telemetry::EventField::Uint("execs", batch.execs),
              telemetry::EventField::Uint("coverage", batch.final_coverage),
              telemetry::EventField::Uint("crashes", batch.crashes)});
  return ack;
}

CampaignResult Orchestrator::MergedResultLocked(const CampaignState& campaign) const {
  CampaignResult merged = ResultFromMetrics(campaign.final_metrics);
  merged.final_coverage = campaign.coverage.Count();
  for (const ShardState& shard : campaign.shards) {
    merged.elapsed = std::max<VirtualTime>(merged.elapsed, shard.elapsed_us);
  }
  // A worker's sink spans its batches, so its drop count is cumulative: sum
  // each worker's latest count, not every final's.
  for (const auto& [worker, dropped] : campaign.worker_dropped) {
    merged.journal_dropped += dropped;
  }
  // One worker served the whole campaign in one batch: its corpus count and
  // sampled series ARE the campaign's (the bit-identity case). Otherwise the
  // corpus count is the merged store (which excludes seed programs) and the
  // series is left to the journal's farm_snapshot rows.
  if (campaign.finals_seen.size() == 1) {
    for (const auto& [at, coverage] : campaign.final_series) {
      merged.series.push_back(CampaignSample{at, coverage});
    }
  } else {
    merged.corpus_size = campaign.corpus.size();
  }
  return merged;
}

void Orchestrator::EmitFarmRowLocked(CampaignState* campaign, VirtualTime at) {
  at = std::max<VirtualTime>(at, campaign->snapshot_at_us);
  campaign->snapshot_at_us = at;
  // The merged finals' counters, with the campaign.* values the orchestrator
  // tracks live laid over them.
  telemetry::MetricsSnapshot snapshot = campaign->final_metrics;
  uint64_t execs = 0;
  for (const ShardState& shard : campaign->shards) {
    execs += shard.execs;
  }
  snapshot.counters["campaign.execs"] = execs;
  snapshot.counters["campaign.bugs"] = campaign->bugs.size();
  snapshot.gauges["campaign.coverage"] = campaign->coverage.Count();
  snapshot.gauges["campaign.corpus"] = campaign->corpus.size();
  telemetry::EventSink* out = sink();
  if (out == nullptr) {
    return;
  }
  telemetry::Event event;
  event.at = at;
  event.type = "farm_snapshot";
  event.worker = -1;
  event.fields.push_back(telemetry::EventField::Uint("boards", campaign->shards.size()));
  event.fields.push_back(
      telemetry::EventField::Real("execs_per_vsec", telemetry::PerVirtualSecond(execs, at)));
  telemetry::AppendCampaignColumns(snapshot, &event);
  // `journal_dropped` is this (orchestrator) sink's own drop count;
  // `journal_dropped_workers` sums the latest worker-reported per-sink counts,
  // so a drop is attributable to a specific sink rather than one aggregate.
  event.fields.push_back(telemetry::EventField::Uint("journal_dropped", out->dropped()));
  event.fields.push_back(telemetry::EventField::Uint(
      "journal_dropped_workers", MergedResultLocked(*campaign).journal_dropped));
  event.fields.push_back(
      telemetry::EventField::Text("campaign", campaign->spec.campaign_id));
  out->Emit(event);
}

void Orchestrator::FinalizeCampaignLocked(CampaignState* campaign) {
  if (campaign->finalized) {
    return;
  }
  campaign->finalized = true;
  VirtualTime elapsed = MergedResultLocked(*campaign).elapsed;
  EmitFarmRowLocked(campaign, elapsed);
  telemetry::EventSink* out = sink();
  EmitLocked(elapsed, "campaign_end", -1,
             {telemetry::EventField::Uint("journal_dropped",
                                          out == nullptr ? 0 : out->dropped())});
  if (out != nullptr) {
    out->Flush();
  }
}

std::vector<FleetCampaignResult> Orchestrator::Results() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FleetCampaignResult> results;
  for (auto& campaign : campaigns_) {
    FinalizeCampaignLocked(campaign.get());
    FleetCampaignResult out;
    out.campaign_id = campaign->spec.campaign_id;
    out.bugs = campaign->bugs;
    out.metrics = campaign->metrics.Snapshot();
    out.workers_served = campaign->workers_served.size();

    out.result = MergedResultLocked(*campaign);
    for (const CorpusEntryWire& entry : campaign->corpus) {
      out.result.corpus_programs.push_back(entry.text);
    }
    results.push_back(std::move(out));
  }
  return results;
}

StatusReplyMsg Orchestrator::AssembleStatusLocked(uint64_t now_ms) {
  StatusReplyMsg reply;
  reply.assembled_ms = now_ms;
  reply.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  for (const auto& campaign : campaigns_) {
    CampaignStatusWire wire;
    wire.campaign_id = campaign->spec.campaign_id;
    wire.os_name = campaign->spec.config.os_name;
    wire.board_name = campaign->spec.config.board_name.empty()
                          ? "default"
                          : campaign->spec.config.board_name;
    wire.budget_us = campaign->spec.config.budget;
    wire.shards_total = static_cast<uint32_t>(campaign->shards.size());
    uint64_t execs = 0;
    for (size_t i = 0; i < campaign->shards.size(); ++i) {
      const ShardState& shard = campaign->shards[i];
      switch (shard.phase) {
        case ShardPhase::kPending: ++wire.shards_pending; break;
        case ShardPhase::kLeased: ++wire.shards_leased; break;
        case ShardPhase::kDone: ++wire.shards_done; break;
      }
      execs += shard.execs;
      ShardStatusWire row;
      row.shard = static_cast<uint32_t>(i);
      row.phase = static_cast<uint8_t>(shard.phase);
      row.lease_id = shard.lease_id;
      row.worker = shard.worker;
      row.attempt = shard.attempt;
      row.deadline_ms = shard.deadline_ms;
      row.elapsed_us = shard.elapsed_us;
      row.execs = shard.execs;
      wire.shards.push_back(row);
    }
    CampaignResult merged = MergedResultLocked(*campaign);
    wire.metrics = campaign->metrics.Snapshot();
    wire.metrics.counters["fleet.campaign.execs"] = execs;
    wire.metrics.counters["fleet.campaign.crashes"] = merged.crashes;
    wire.metrics.gauges["fleet.campaign.coverage"] = campaign->coverage.Count();
    wire.metrics.gauges["fleet.campaign.corpus"] = campaign->corpus.size();
    wire.metrics.gauges["fleet.campaign.frontier_us"] = FrontierLocked(*campaign);
    telemetry::EventSink* out = sink();
    wire.journal_dropped = out == nullptr ? 0 : out->dropped();
    wire.journal_dropped_workers = merged.journal_dropped;
    wire.finalized = campaign->finalized ? 1 : 0;
    for (const BugWire& bug : campaign->bugs) {
      BugStatusWire row;
      row.catalog_id = bug.catalog_id;
      row.detector = bug.detector;
      row.kind = bug.kind;
      row.excerpt = bug.excerpt;
      row.at_us = bug.at_us;
      row.board = bug.board;
      wire.bugs.push_back(std::move(row));
    }
    reply.campaigns.push_back(std::move(wire));
  }
  for (const auto& [worker_id, info] : workers_) {
    WorkerStatusWire row;
    row.worker_id = worker_id;
    row.name = info.name;
    row.last_seen_ms = info.last_seen_ms;
    row.lost = info.lost ? 1 : 0;
    row.execs = info.execs_final + info.execs_live;
    row.syncs = info.syncs;
    row.journal_dropped = info.journal_dropped;
    for (const auto& campaign : campaigns_) {
      for (const ShardState& shard : campaign->shards) {
        if (shard.phase == ShardPhase::kLeased && shard.worker == worker_id) {
          ++row.leases;
        }
      }
    }
    reply.workers.push_back(std::move(row));
  }
  return reply;
}

StatusReplyMsg Orchestrator::HandleStatus(const StatusRequestMsg& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  status_requests_->Increment();
  uint64_t now = NowMs();
  // Bounded staleness: one assembly per heartbeat interval at most. A poll
  // storm (many observers, short --interval) reuses the cached snapshot, so
  // observers never add more than one state walk per heartbeat on top of the
  // per-message lock they already share with workers.
  if (!status_cache_valid_ || now < status_cache_ms_ ||
      now - status_cache_ms_ >= options_.heartbeat_interval_ms) {
    status_cache_ = AssembleStatusLocked(now);
    status_cache_ms_ = now;
    status_cache_valid_ = true;
  }
  StatusReplyMsg reply = status_cache_;
  reply.server_ms = now;
  if (!msg.campaign_id.empty()) {
    std::vector<CampaignStatusWire> filtered;
    for (CampaignStatusWire& campaign : reply.campaigns) {
      if (campaign.campaign_id == msg.campaign_id) {
        filtered.push_back(std::move(campaign));
      }
    }
    reply.campaigns = std::move(filtered);
  }
  if (msg.include_shards == 0) {
    for (CampaignStatusWire& campaign : reply.campaigns) {
      campaign.shards.clear();
    }
  }
  return reply;
}

telemetry::MetricsSnapshot Orchestrator::MetricsSnapshot() const {
  return metrics_.Snapshot();
}

void Orchestrator::ServeConnection(Transport* transport) {
  // Recv timeout: long enough that a worker sleeping through a NoWork backoff
  // is not dropped, short enough that a dead peer frees the handler promptly.
  int recv_timeout = static_cast<int>(
      std::min<uint64_t>(options_.lease_timeout_ms, 60 * 1000));
  int idle_rounds = 0;
  for (;;) {
    Result<Frame> frame_or = transport->Recv(recv_timeout);
    if (!frame_or.ok()) {
      if (frame_or.status().code() == ErrorCode::kTimeout) {
        ReapExpiredLeases();
        if (AllCampaignsDone() || ++idle_rounds >= 2) {
          break;
        }
        continue;
      }
      break;  // peer closed or stream corrupt — the reaper recovers the leases
    }
    idle_rounds = 0;
    const Frame& frame = frame_or.value();
    Frame reply;
    bool have_reply = true;
    switch (frame.type) {
      case MsgType::kHello: {
        Result<HelloMsg> msg = DecodeHello(frame.payload);
        if (!msg.ok()) {
          return transport->Close();
        }
        reply.type = MsgType::kHelloAck;
        reply.payload = Encode(HandleHello(msg.value()));
        break;
      }
      case MsgType::kLeaseRequest: {
        Result<LeaseRequestMsg> msg = DecodeLeaseRequest(frame.payload);
        if (!msg.ok()) {
          return transport->Close();
        }
        reply = HandleLeaseRequest(msg.value());
        break;
      }
      case MsgType::kSync: {
        Result<SyncMsg> msg = DecodeSync(frame.payload);
        if (!msg.ok()) {
          return transport->Close();
        }
        sync_frames_->Increment();
        sync_payload_bytes_->Observe(frame.payload.size());
        reply.type = MsgType::kSyncAck;
        reply.payload = Encode(HandleSync(msg.value()));
        break;
      }
      case MsgType::kWorkerFinal: {
        Result<WorkerFinalMsg> msg = DecodeWorkerFinal(frame.payload);
        if (!msg.ok()) {
          return transport->Close();
        }
        reply.type = MsgType::kFinalAck;
        reply.payload = Encode(HandleFinal(msg.value()));
        break;
      }
      case MsgType::kStatusRequest: {
        // Observer role: read-only, never takes leases, never says Hello.
        Result<StatusRequestMsg> msg = DecodeStatusRequest(frame.payload);
        if (!msg.ok()) {
          return transport->Close();
        }
        reply.type = MsgType::kStatusReply;
        reply.payload = Encode(HandleStatus(msg.value()));
        break;
      }
      case MsgType::kGoodbye:
        return transport->Close();
      default:
        return transport->Close();  // workers never receive these types
    }
    if (have_reply && !transport->Send(reply).ok()) {
      break;
    }
  }
  transport->Close();
}

Status Orchestrator::Serve(Listener* listener) {
  std::vector<std::thread> handlers;
  std::vector<std::unique_ptr<Transport>> connections;
  std::atomic<int> active{0};
  for (;;) {
    ReapExpiredLeases();
    if (AllCampaignsDone() && active.load() == 0) {
      break;
    }
    Result<std::unique_ptr<Transport>> conn = listener->Accept(50);
    if (!conn.ok()) {
      if (conn.status().code() == ErrorCode::kTimeout) {
        continue;
      }
      break;  // listener closed
    }
    connections.push_back(std::move(conn.value()));
    Transport* transport = connections.back().get();
    active.fetch_add(1);
    handlers.emplace_back([this, transport, &active] {
      ServeConnection(transport);
      active.fetch_sub(1);
    });
  }
  listener->Close();
  for (auto& connection : connections) {
    connection->Close();  // unblock any handler still in Recv
  }
  for (std::thread& handler : handlers) {
    handler.join();
  }
  return OkStatus();
}

}  // namespace fleet
}  // namespace eof
