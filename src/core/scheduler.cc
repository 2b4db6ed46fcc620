#include "src/core/scheduler.h"

#include <algorithm>

#include "src/agent/agent_layout.h"
#include "src/common/coverage_serial.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/core/bug_catalog.h"
#include "src/fuzz/program_text.h"
#include "src/fuzz/trimmer.h"
#include "src/telemetry/rows.h"

namespace eof {

void SetResultScalars(const telemetry::MetricsSnapshot& campaign, const ExecStats& stats,
                      const DebugPortStats& link, CampaignResult* result) {
  result->final_coverage = campaign.GaugeValue("campaign.coverage");
  result->corpus_size = campaign.GaugeValue("campaign.corpus");
  result->execs = campaign.CounterValue("campaign.execs");
  result->crashes = campaign.CounterValue("campaign.crashes");
  result->bugs_rejected = campaign.CounterValue("campaign.bugs_rejected");
  result->trim_removed_calls = campaign.CounterValue("campaign.trim_removed_calls");
  result->trim_kept_calls = campaign.CounterValue("campaign.trim_kept_calls");
  result->rejected = stats.rejected;
  result->stalls = stats.stalls;
  result->timeouts = stats.timeouts;
  result->restores = stats.restores;
  result->snapshot_restores = stats.snapshot_restores;
  result->snapshot_bytes = stats.snapshot_bytes;
  result->link = link;
}

CampaignScheduler::CampaignScheduler(const spec::CompiledSpecs& specs, Options options)
    : specs_(specs),
      options_(options),
      sampler_(options.budget, options.sample_points),
      worker_elapsed_(static_cast<size_t>(std::max(options.workers, 1)), 0),
      worker_done_(static_cast<size_t>(std::max(options.workers, 1)), false) {
  registry_ = options_.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  sink_ = options_.sink;
  execs_ = registry_->RegisterCounter("campaign.execs");
  crashes_ = registry_->RegisterCounter("campaign.crashes");
  bugs_found_ = registry_->RegisterCounter("campaign.bugs");
  bug_dedup_hits_ = registry_->RegisterCounter("campaign.bug_dedup_hits");
  bugs_rejected_ = registry_->RegisterCounter("campaign.bugs_rejected");
  validation_replays_ = registry_->RegisterCounter("campaign.validation_replays");
  fresh_edges_ = registry_->RegisterCounter("campaign.fresh_edges");
  corpus_adds_ = registry_->RegisterCounter("campaign.corpus_adds");
  trim_removed_calls_ = registry_->RegisterCounter("campaign.trim_removed_calls");
  trim_kept_calls_ = registry_->RegisterCounter("campaign.trim_kept_calls");
  coverage_gauge_ = registry_->RegisterGauge("campaign.coverage");
  corpus_gauge_ = registry_->RegisterGauge("campaign.corpus");
}

int CampaignScheduler::ShardLabel(int worker) const {
  if (worker >= 0 && static_cast<size_t>(worker) < options_.shard_ids.size()) {
    return options_.shard_ids[static_cast<size_t>(worker)];
  }
  return worker;
}

void CampaignScheduler::SeedCorpus(const std::vector<std::string>& seed_programs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& text : seed_programs) {
    auto parsed = fuzz::ParseProgramText(specs_, text);
    if (parsed.ok() && options_.coverage_feedback) {
      corpus_.Add(std::move(parsed.value()), 1);
    }
  }
  corpus_gauge_->Set(corpus_.size());
}

void CampaignScheduler::NextProgram(fuzz::Generator& generator, Rng& rng,
                                    fuzz::Program* program) {
  if (options_.coverage_feedback) {
    fuzz::Program splice_tail;
    enum { kGenerate, kMutate, kSplice } action = kGenerate;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!corpus_.empty()) {
        uint64_t roll = rng.Below(100);
        if (roll < 70) {
          if (corpus_.PickSeedCopy(rng, program)) {
            action = kMutate;
          }
        } else if (roll < 80 && corpus_.size() >= 2) {
          if (corpus_.PickSeedCopy(rng, program) &&
              corpus_.PickSeedCopy(rng, &splice_tail)) {
            action = kSplice;
          }
        }
      }
    }
    if (action == kMutate) {
      generator.MutateInPlace(program);
      return;
    }
    if (action == kSplice) {
      generator.SpliceInPlace(program, splice_tail);
      return;
    }
  }
  *program = generator.Generate();
}

fuzz::Program CampaignScheduler::NextProgram(fuzz::Generator& generator, Rng& rng) {
  fuzz::Program program;
  NextProgram(generator, rng, &program);
  return program;
}

void CampaignScheduler::RecordBugLocked(const BugSignature& signature,
                                        const fuzz::Program& program,
                                        const ExecOutcome& outcome,
                                        uint64_t coverage_delta, VirtualTime elapsed,
                                        int worker) {
  // Provenance is stamped with the campaign-global shard label so merged
  // per-worker fleet journals attribute bugs to distinct boards.
  int shard = ShardLabel(worker);
  crashes_->Increment();
  int catalog_id = AttributeBug(options_.os_name, signature.excerpt);
  // Deduplicate by the one identity rule (telemetry::SameBug). Rejected sightings
  // count too — an artifact that re-triggers must not re-run validation — and so
  // do bugs other fleet workers already confirmed.
  auto is_duplicate = [&](const std::vector<BugReport>& table) {
    return std::any_of(table.begin(), table.end(), [&](const BugReport& existing) {
      return telemetry::SameBug(existing, catalog_id, signature.excerpt);
    });
  };
  if (is_duplicate(result_.bugs) || is_duplicate(rejected_bugs_) ||
      is_duplicate(remote_bugs_)) {
    bug_dedup_hits_->Increment();
    telemetry::Journal(sink_, elapsed, shard, [&] {
      return telemetry::BugDedupRow{catalog_id, signature.detector};
    });
    return;
  }
  BugReport report;
  report.catalog_id = catalog_id;
  report.detector = signature.detector;
  report.kind = signature.kind;
  if (const BugInfo* info = FindBug(catalog_id)) {
    report.operation = info->operation;
  }
  report.excerpt = signature.excerpt;
  report.at = elapsed;
  report.program_text = fuzz::SerializeProgramText(specs_, program);
  report.first_exec = execs_->Value();
  report.board = shard;
  // Same lane rule as FarmWorkerSeed (shard 0 keeps the base stream) without a
  // dependency on the farm layer.
  report.seed_stream = shard == 0 ? options_.seed
                                  : DeriveSeedStream(options_.seed,
                                                     static_cast<uint64_t>(shard));
  report.coverage_delta = coverage_delta;
  if (outcome.dump.has_value()) {
    const telemetry::FlightDump& dump = *outcome.dump;
    report.last_restore = dump.last_restore;
    report.dump_reason = dump.reason;
    report.uart_tail = dump.UartTailText();
    report.port_ops = dump.PortOpsText();
    report.events = dump.EventsText();
  }
  // Cold-boot provenance gate: before a first sighting enters the bug table, replay
  // its reproducer against a freshly flashed board. A crash that only reproduces on
  // accumulated warm-restore state is an artifact of the snapshot fast path, not an
  // OS bug — journal it as rejected and keep it out of the results.
  bool confirmed = true;
  if (options_.validator) {
    validation_replays_->Increment();
    confirmed = options_.validator(report);
    report.snapshot_validation = confirmed ? "confirmed" : "rejected";
  }
  if (confirmed) {
    bugs_found_->Increment();
    telemetry::Journal(sink_, elapsed, shard, [&] {
      return telemetry::BugRow{catalog_id, signature.detector, signature.kind};
    });
  } else {
    bugs_rejected_->Increment();
  }
  // The record itself is the bug_report row: everything a later `eof report` run
  // needs to rebuild the bug table. Rejected sightings are journaled too —
  // snapshot_validation says which is which.
  telemetry::Journal(sink_, elapsed, shard, [&]() -> const BugReport& { return report; });
  if (confirmed) {
    result_.bugs.push_back(std::move(report));
    EOF_LOG(kDebug) << options_.os_name << ": bug #" << catalog_id << " via "
                    << signature.detector << ": " << signature.excerpt;
  } else {
    rejected_bugs_.push_back(std::move(report));
    EOF_LOG(kDebug) << options_.os_name << ": rejected state-dependent sighting #"
                    << catalog_id << " via " << signature.detector << ": "
                    << signature.excerpt;
  }
}

void CampaignScheduler::AdvanceFrontierLocked(int worker, VirtualTime elapsed) {
  size_t slot = static_cast<size_t>(worker);
  if (slot < worker_elapsed_.size()) {
    worker_elapsed_[slot] = std::max(worker_elapsed_[slot], elapsed);
  }
  // The campaign timeline advances to the slowest active session: a sample at time
  // t is recorded once every board has lived through t, so the merged series never
  // credits coverage to a moment some board has not reached yet.
  VirtualTime frontier = options_.budget;
  for (size_t i = 0; i < worker_elapsed_.size(); ++i) {
    if (!worker_done_[i]) {
      frontier = std::min(frontier, worker_elapsed_[i]);
    }
  }
  sampler_.Advance(frontier, coverage_.Count(), &result_.series);
}

void CampaignScheduler::OnOutcome(const fuzz::Program& program, const ExecOutcome& outcome,
                                  fuzz::Generator& generator, VirtualTime elapsed,
                                  int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CovHit>& fresh_hits = fresh_hits_;
  fresh_hits.clear();
  uint64_t fresh = coverage_.AddBatchAttributed(outcome.hits, &fresh_hits);
  execs_->Increment();
  if (outcome.signature.has_value()) {
    RecordBugLocked(*outcome.signature, program, outcome, fresh, elapsed, worker);
  }
  if (fresh > 0) {
    fresh_edges_->Add(fresh);
    coverage_gauge_->Set(coverage_.Count());
    if (options_.track_coverage_delta) {
      for (const CovHit& hit : fresh_hits) {
        coverage_delta_log_.push_back(hit.edge);
      }
    }
    telemetry::Journal(sink_, elapsed, ShardLabel(worker), [&] {
      return telemetry::NewCoverageRow{fresh, coverage_.Count()};
    });
  }
  if (options_.coverage_feedback && fresh > 0) {
    const fuzz::Program* admit = &program;
    fuzz::Program trimmed;
    if (options_.trim) {
      fuzz::TrimStats trim_stats;
      trimmed = fuzz::TrimToFreshHits(program, fresh_hits, &trim_stats);
      trim_kept_calls_->Add(trim_stats.kept_calls);
      trim_removed_calls_->Add(trim_stats.removed_calls);
      if (trim_stats.removed_calls > 0) {
        telemetry::Journal(sink_, elapsed, ShardLabel(worker), [&] {
          return telemetry::TrimRow{trim_stats.kept_calls, trim_stats.removed_calls};
        });
      }
      admit = &trimmed;
    }
    if (corpus_.Add(*admit, fresh)) {
      corpus_adds_->Increment();
      corpus_gauge_->Set(corpus_.size());
      generator.NotifyNewCoverage(*admit);
    }
  }
  AdvanceFrontierLocked(worker, elapsed);
}

void CampaignScheduler::OnWorkerDone(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t slot = static_cast<size_t>(worker);
  if (slot >= worker_done_.size()) {
    return;
  }
  worker_done_[slot] = true;
  AdvanceFrontierLocked(worker, worker_elapsed_[slot]);
}

CampaignResult CampaignScheduler::Finalize(const ExecStats& stats, VirtualTime elapsed,
                                           const DebugPortStats& link) {
  std::lock_guard<std::mutex> lock(mu_);
  sampler_.Finish(coverage_.Count(), &result_.series);
  SetResultScalars(registry_->Snapshot(), stats, link, &result_);
  result_.elapsed = elapsed;
  if (options_.export_corpus) {
    std::vector<fuzz::CorpusRecord> exported;
    corpus_.ExportSince(specs_, 0, &exported);
    result_.corpus_programs.clear();
    result_.corpus_programs.reserve(exported.size());
    for (fuzz::CorpusRecord& record : exported) {
      result_.corpus_programs.push_back(std::move(record.text));
    }
  }
  return result_;
}

std::vector<uint8_t> CampaignScheduler::SerializeCoverageSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SerializeCoverage(coverage_);
}

std::vector<uint8_t> CampaignScheduler::TakeCoverageDelta() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t> blob =
      SerializeCoverageIds(std::move(coverage_delta_log_), CoverageWireKind::kDiff);
  coverage_delta_log_.clear();
  return blob;
}

Result<size_t> CampaignScheduler::MergeRemoteCoverage(const std::vector<uint8_t>& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  ASSIGN_OR_RETURN(size_t fresh, MergeSerializedCoverage(blob, &coverage_));
  if (fresh > 0) {
    // Peer edges enter the map (so local rediscovery is not "fresh") but are
    // neither logged into the upload delta nor counted as locally discovered.
    coverage_gauge_->Set(coverage_.Count());
  }
  return fresh;
}

uint64_t CampaignScheduler::ExportCorpusSince(uint64_t from_seq,
                                              std::vector<fuzz::CorpusRecord>* out) const {
  return corpus_.ExportSince(specs_, from_seq, out);
}

size_t CampaignScheduler::AdmitRemotePrograms(const std::vector<fuzz::CorpusRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t admitted = 0;
  for (const fuzz::CorpusRecord& record : records) {
    auto parsed = fuzz::ParseProgramText(specs_, record.text);
    if (parsed.ok() &&
        corpus_.Add(std::move(parsed.value()), std::max<uint64_t>(record.new_edges, 1))) {
      ++admitted;
    }
  }
  if (admitted > 0) {
    corpus_gauge_->Set(corpus_.size());
  }
  return admitted;
}

std::vector<BugReport> CampaignScheduler::BugsSince(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= result_.bugs.size()) {
    return {};
  }
  return std::vector<BugReport>(result_.bugs.begin() + from, result_.bugs.end());
}

void CampaignScheduler::LearnRemoteBugs(const std::vector<BugReport>& bugs) {
  std::lock_guard<std::mutex> lock(mu_);
  remote_bugs_.insert(remote_bugs_.end(), bugs.begin(), bugs.end());
}

size_t CampaignScheduler::CorpusSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corpus_.size();
}

telemetry::MetricsSnapshot CampaignScheduler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registry_->Snapshot();
}

std::vector<BugReport> CampaignScheduler::RejectedBugs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_bugs_;
}

bool EncodeForMailbox(const spec::CompiledSpecs& specs, fuzz::Program* program,
                      std::vector<uint8_t>* encoded) {
  program->Encode(specs, encoded);
  if (encoded->size() <= kMailboxMaxBytes) {
    return true;
  }
  // Oversized program: trim calls until it fits the mailbox.
  while (!program->calls.empty() && encoded->size() > kMailboxMaxBytes) {
    program->calls.pop_back();
    program->Encode(specs, encoded);
  }
  return !program->calls.empty();
}

}  // namespace eof
