// Fleet worker: the board-owning half of `eof worker`. One worker process holds
// one connection to the orchestrator and loops lease batches:
//
//   Hello -> HelloAck(worker_id, heartbeat, lease timeout)
//   repeat:
//     LeaseRequest -> LeaseGrant | NoWork(backoff / campaign_done)
//     RunBatch: a fresh CampaignScheduler seeded from the grant's coverage
//       snapshot + merged corpus, one BoardFarm session per lease
//       (seeded by the campaign-global shard label, FarmWorkerSeed rule); a
//       sync pump heartbeats Sync/SyncAck every heartbeat interval, renewing
//       leases, uploading coverage diffs / new corpus / new bugs, and folding
//       the orchestrator's news (coverage, corpus, bug table) back in;
//       finished batches upload WorkerFinal.
//
// Workers are stateless between batches — everything campaign-wide arrives in
// the grant — which is what makes crash/rejoin trivial: a restarted worker is
// indistinguishable from a new one.
//
// Bit-identity: a batch whose grant carries one lease for shard 0 and empty
// sync state runs the exact program sequence of in-process `--jobs 1` — the
// sync pump's merge hooks are no-ops on empty payloads and never touch an RNG
// or a virtual clock.

#ifndef SRC_FLEET_WORKER_H_
#define SRC_FLEET_WORKER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/board_farm.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "src/telemetry/journal.h"

namespace eof {
namespace fleet {

class FleetWorker {
 public:
  struct Options {
    std::string name = "worker";
    int capacity = 1;  // concurrent board sessions per lease batch
    // Worker journal (board rows + per-batch campaign rows, one file spanning
    // batches). `metrics_out` opens a file sink; `sink` injects one for tests.
    // At most one may be set.
    std::string metrics_out;
    telemetry::EventSink* sink = nullptr;
  };

  static Result<std::unique_ptr<FleetWorker>> Create(Options options);

  // Connects, serves lease batches until the orchestrator reports every
  // campaign done (or the connection drops / a board session fails), says
  // Goodbye, and returns. A batch aborted by the orchestrator (stale worker,
  // revoked leases) is not an error — the loop just requests fresh work.
  Status Run(Transport* transport);

  // Merged result of each completed batch, in completion order.
  const std::vector<CampaignResult>& batch_results() const { return results_; }

 private:
  explicit FleetWorker(Options options);

  // Runs one granted batch to completion (or abort). Returns the batch's
  // CampaignResult; fails only on board/session errors or a dead transport.
  Result<CampaignResult> RunBatch(Transport* transport, const LeaseGrantMsg& grant);

  telemetry::EventSink* sink() const;

  Options options_;
  std::unique_ptr<telemetry::FileEventSink> file_sink_;
  uint32_t worker_id_ = 0;
  uint64_t heartbeat_ms_ = 1000;
  uint64_t lease_timeout_ms_ = 5000;
  uint64_t sync_seq_ = 0;
  std::vector<CampaignResult> results_;
};

}  // namespace fleet
}  // namespace eof

#endif  // SRC_FLEET_WORKER_H_
