// Fleet orchestrator: the campaign-owning half of `eof serve`. It never touches
// a board — workers run the board sessions — but it owns everything campaign-
// wide that the in-process CampaignScheduler owns for a farm: the merged
// coverage map, the merged corpus, the deduplicated bug table, and the decision
// of who fuzzes what next.
//
// Work unit: a *shard* — one campaign-global board lane (label + seed stream,
// the FarmWorkerSeed rule). Shards move Pending -> Leased -> Done; a lease is
// renewed by the worker's periodic Sync and reclaimed (back to Pending, attempt
// incremented) when the worker stays silent past the lease timeout, so a
// crashed worker's shards re-run elsewhere and a rejoining worker simply asks
// for new leases and resyncs from the coverage snapshot in its grant.
//
// Scheduling across campaigns is weighted fair share: a LeaseRequest goes to
// the campaign with pending shards whose active-lease count is smallest
// relative to its weight, with total outstanding leases capped by the board
// pool.
//
// Upload idempotence: coverage merges and corpus/bug admission are set
// operations keyed on content, and exec-stat scalars only count from
// WorkerFinal messages (deduplicated by worker/seq) — so replayed Syncs,
// re-run shards, and duplicated finals never double-count anything.
//
// Thread model: one mutex over all campaign state; connection handlers lock per
// message. The wall clock is injectable so lease-expiry tests run on a fake.

#ifndef SRC_FLEET_ORCHESTRATOR_H_
#define SRC_FLEET_ORCHESTRATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/coverage_map.h"
#include "src/core/fuzzer.h"
#include "src/fleet/fleet_config.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace eof {
namespace fleet {

struct FleetCampaignSpec {
  std::string campaign_id;
  FuzzerConfig config;
  int shards = 1;  // campaign-global board lanes (the farm's --jobs analogue)
  int weight = 1;  // fair-share weight against the other campaigns
};

struct FleetCampaignResult {
  std::string campaign_id;
  // Merged campaign outcome. `result.bugs` stays empty — wire bugs carry the
  // flight-recorder rings as text renders, which do not reconstruct into
  // structured FlightDumps; they live in `bugs` below instead.
  CampaignResult result;
  std::vector<BugWire> bugs;
  // The campaign's fleet.* lease and upload counters (see CampaignState).
  telemetry::MetricsSnapshot metrics;
  uint64_t workers_served = 0;
};

class Orchestrator {
 public:
  struct Options {
    int board_pool = 64;  // cap on outstanding leases across all campaigns
    uint64_t heartbeat_interval_ms = 1000;  // Sync cadence workers must keep
    uint64_t lease_timeout_ms = 5000;       // silence after which leases reclaim
    // Fleet journal (lease lifecycle + campaign rows). `metrics_out` opens a
    // file sink; `sink` injects one for tests. At most one may be set.
    std::string metrics_out;
    telemetry::EventSink* sink = nullptr;
    // Size-based journal rotation: when > 0 and metrics_out is set, the journal
    // is written as numbered segments of at most this many bytes each (see
    // telemetry::RotatingFileEventSink). 0 = one unrotated file.
    uint64_t journal_rotate_bytes = 0;
    // Wall clock in milliseconds for lease deadlines; defaults to
    // std::chrono::steady_clock. Tests inject a fake to expire leases instantly.
    std::function<uint64_t()> clock_ms;
  };

  static Result<std::unique_ptr<Orchestrator>> Create(Options options);

  // Registers a campaign (before serving). Fails on a duplicate id, an empty
  // id, or a non-positive shard count / weight.
  Status AddCampaign(const FleetCampaignSpec& spec);

  // Accept loop: serves every connecting worker on its own thread, reaps
  // expired leases between accepts, and returns once every campaign is done
  // and the workers have drained. Closes the listener on exit.
  Status Serve(Listener* listener);

  // Serves one worker connection to completion (blocking). Public so loopback
  // tests drive connections without the accept loop.
  void ServeConnection(Transport* transport);

  // Returns leases whose workers went silent past the timeout to Pending.
  // Serve() calls this continuously; tests with a fake clock call it directly.
  void ReapExpiredLeases();

  bool AllCampaignsDone() const;
  int CompletedShards(const std::string& campaign_id) const;

  // Finalizes every campaign (journals the closing farm_snapshot/campaign_end
  // rows once) and returns the merged results in AddCampaign order.
  std::vector<FleetCampaignResult> Results();

  // Observer-role status poll: a read-only aggregated snapshot of every
  // campaign and worker, assembled under the campaign lock at most once per
  // heartbeat interval (subsequent polls within the interval reuse the cached
  // snapshot — the bounded-staleness guarantee). Never touches lease state.
  StatusReplyMsg HandleStatus(const StatusRequestMsg& msg);

  // Orchestrator-side instruments (status polls served, sync frames and their
  // payload sizes) for the /metrics exposition.
  telemetry::MetricsSnapshot MetricsSnapshot() const;

 private:
  enum class ShardPhase { kPending, kLeased, kDone };

  struct ShardState {
    ShardPhase phase = ShardPhase::kPending;
    uint64_t lease_id = 0;
    uint32_t worker = 0;
    uint64_t deadline_ms = 0;
    uint32_t attempt = 0;
    uint64_t elapsed_us = 0;
    uint64_t execs = 0;
  };

  // What this worker has already been told (grant or ack): positions into the
  // campaign's append-only edge log and corpus store.
  struct WorkerCursor {
    size_t edge = 0;
    size_t corpus = 0;
  };

  struct CampaignState {
    FleetCampaignSpec spec;
    WireCampaignConfig wire;
    std::vector<ShardState> shards;
    CoverageMap coverage;
    std::vector<uint64_t> edge_log;  // distinct edges in merge order
    std::vector<CorpusEntryWire> corpus;
    std::vector<uint32_t> corpus_origin;  // worker id that contributed entry i
    std::unordered_set<uint64_t> corpus_hashes;
    std::vector<BugWire> bugs;
    std::set<std::string> bug_keys;  // catalog_id|excerpt
    std::map<uint32_t, WorkerCursor> cursors;
    // WorkerFinal accumulation (idempotent on worker/seq): every accepted
    // final's metrics merged into one snapshot, plus the latest final's series
    // (the campaign's series when it is the only final).
    std::set<std::pair<uint32_t, uint64_t>> finals_seen;
    telemetry::MetricsSnapshot final_metrics;
    std::vector<std::pair<uint64_t, uint64_t>> final_series;
    std::set<uint32_t> workers_served;
    // Lease and upload counters, all registered by AddCampaign (kCampaignCounters
    // in orchestrator.cc): leases granted and reclaimed, rejected (malformed or
    // stale) uploads, workers lost, and Syncs that added a program to the corpus.
    // Live status, /metrics and the results read them by name.
    telemetry::MetricsRegistry metrics;
    uint64_t snapshot_at_us = 0;  // monotone farm_snapshot stamp
    // Latest worker-reported sink drop count per worker (cumulative on the
    // worker side), so the final farm_snapshot can attribute drops to sinks.
    std::map<uint32_t, uint64_t> worker_dropped;
    bool finalized = false;
  };

  struct WorkerInfo {
    std::string name;
    uint64_t last_seen_ms = 0;
    bool lost = false;
    uint64_t execs_live = 0;   // sum of shard execs in the latest Sync
    uint64_t execs_final = 0;  // summed execs from accepted finals
    uint64_t syncs = 0;        // Sync frames accepted
    uint64_t journal_dropped = 0;  // latest worker-reported sink drops
  };

  explicit Orchestrator(Options options);

  uint64_t NowMs() const;
  telemetry::EventSink* sink() const;
  void EmitLocked(VirtualTime at, const char* type, int worker,
                  std::vector<telemetry::EventField> fields);

  HelloAckMsg HandleHello(const HelloMsg& msg);
  Frame HandleLeaseRequest(const LeaseRequestMsg& msg);
  SyncAckMsg HandleSync(const SyncMsg& msg);
  FinalAckMsg HandleFinal(const WorkerFinalMsg& msg);

  CampaignState* FindCampaignLocked(const std::string& campaign_id);
  bool CampaignDoneLocked(const CampaignState& campaign) const;
  bool AllDoneLocked() const;
  size_t ActiveLeasesLocked(const CampaignState& campaign) const;
  size_t TotalActiveLeasesLocked() const;
  void ReapLocked();
  void MergeCoverageLocked(CampaignState* campaign,
                           const std::vector<uint8_t>& blob);
  void AdmitCorpusLocked(CampaignState* campaign, uint32_t worker,
                         const std::vector<CorpusEntryWire>& entries);
  void AdmitBugsLocked(CampaignState* campaign, const std::vector<BugWire>& bugs);
  uint64_t FrontierLocked(const CampaignState& campaign) const;
  // The campaign's merged result so far, minus corpus_programs.
  CampaignResult MergedResultLocked(const CampaignState& campaign) const;
  void EmitFarmRowLocked(CampaignState* campaign, VirtualTime at);
  void FinalizeCampaignLocked(CampaignState* campaign);
  StatusReplyMsg AssembleStatusLocked(uint64_t now_ms);

  Options options_;
  std::unique_ptr<telemetry::EventSink> file_sink_;
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter* status_requests_ = nullptr;
  telemetry::Counter* sync_frames_ = nullptr;
  telemetry::Histogram* sync_payload_bytes_ = nullptr;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CampaignState>> campaigns_;
  std::map<uint32_t, WorkerInfo> workers_;
  uint32_t next_worker_id_ = 1;
  uint64_t next_lease_id_ = 1;
  // Bounded-staleness status cache: the full snapshot (all campaigns, with
  // shard tables) assembled at status_cache_ms_, filtered per request.
  StatusReplyMsg status_cache_;
  uint64_t status_cache_ms_ = 0;
  bool status_cache_valid_ = false;
};

}  // namespace fleet
}  // namespace eof

#endif  // SRC_FLEET_ORCHESTRATOR_H_
