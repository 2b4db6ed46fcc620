#include "src/fleet/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/logging.h"

namespace eof {
namespace fleet {

namespace {

constexpr int kHandshakeTimeoutMs = 30 * 1000;

std::vector<std::pair<std::string, uint64_t>> ToCorpusPairs(
    const std::vector<CorpusEntryWire>& entries) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  pairs.reserve(entries.size());
  for (const CorpusEntryWire& entry : entries) {
    pairs.emplace_back(entry.text, entry.new_edges);
  }
  return pairs;
}

std::vector<CorpusEntryWire> ToCorpusWire(
    const std::vector<std::pair<std::string, uint64_t>>& pairs) {
  std::vector<CorpusEntryWire> entries;
  entries.reserve(pairs.size());
  for (const auto& [text, new_edges] : pairs) {
    CorpusEntryWire entry;
    entry.text = text;
    entry.new_edges = new_edges;
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

FleetWorker::FleetWorker(Options options) : options_(std::move(options)) {}

Result<std::unique_ptr<FleetWorker>> FleetWorker::Create(Options options) {
  if (options.capacity < 1) {
    return InvalidArgumentError("FleetWorker: capacity must be positive");
  }
  if (!options.metrics_out.empty() && options.sink != nullptr) {
    return InvalidArgumentError(
        "FleetWorker: metrics_out and sink are mutually exclusive");
  }
  auto worker = std::unique_ptr<FleetWorker>(new FleetWorker(std::move(options)));
  if (!worker->options_.metrics_out.empty()) {
    ASSIGN_OR_RETURN(worker->file_sink_,
                     telemetry::FileEventSink::Open(worker->options_.metrics_out));
  }
  return worker;
}

telemetry::EventSink* FleetWorker::sink() const {
  if (options_.sink != nullptr) {
    return options_.sink;
  }
  return file_sink_.get();
}

Status FleetWorker::Run(Transport* transport) {
  HelloMsg hello;
  hello.worker_name = options_.name;
  hello.capacity = static_cast<uint32_t>(options_.capacity);
  RETURN_IF_ERROR(transport->Send({MsgType::kHello, Encode(hello)}));
  ASSIGN_OR_RETURN(Frame ack_frame, transport->Recv(kHandshakeTimeoutMs));
  if (ack_frame.type != MsgType::kHelloAck) {
    return FailedPreconditionError("fleet worker: expected HelloAck");
  }
  ASSIGN_OR_RETURN(HelloAckMsg hello_ack, DecodeHelloAck(ack_frame.payload));
  worker_id_ = hello_ack.worker_id;
  heartbeat_ms_ = std::max<uint64_t>(hello_ack.heartbeat_interval_ms, 1);
  lease_timeout_ms_ = std::max<uint64_t>(hello_ack.lease_timeout_ms, heartbeat_ms_ + 1);

  int reply_timeout = static_cast<int>(
      std::max<uint64_t>(lease_timeout_ms_, 1000));
  for (;;) {
    LeaseRequestMsg request;
    request.worker_id = worker_id_;
    request.capacity = static_cast<uint32_t>(options_.capacity);
    RETURN_IF_ERROR(transport->Send({MsgType::kLeaseRequest, Encode(request)}));
    ASSIGN_OR_RETURN(Frame reply, transport->Recv(reply_timeout));
    if (reply.type == MsgType::kNoWork) {
      ASSIGN_OR_RETURN(NoWorkMsg no_work, DecodeNoWork(reply.payload));
      if (no_work.campaign_done != 0) {
        GoodbyeMsg goodbye;
        goodbye.worker_id = worker_id_;
        (void)transport->Send({MsgType::kGoodbye, Encode(goodbye)});
        return OkStatus();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<uint64_t>(std::max<uint64_t>(no_work.retry_ms, 1), 10 * 1000)));
      continue;
    }
    if (reply.type != MsgType::kLeaseGrant) {
      return FailedPreconditionError("fleet worker: expected LeaseGrant or NoWork");
    }
    ASSIGN_OR_RETURN(LeaseGrantMsg grant, DecodeLeaseGrant(reply.payload));
    if (grant.leases.empty()) {
      continue;
    }
    Result<CampaignResult> batch = RunBatch(transport, grant);
    if (!batch.ok()) {
      // An aborted batch (stale worker / orchestrator refused the sync) is not
      // fatal — ask for fresh work. Board/session errors are.
      if (batch.status().code() == ErrorCode::kFailedPrecondition) {
        continue;
      }
      return batch.status();
    }
    results_.push_back(std::move(batch).value());
  }
}

Result<CampaignResult> FleetWorker::RunBatch(Transport* transport,
                                             const LeaseGrantMsg& grant) {
  FuzzerConfig config = FromWireConfig(grant.config);
  ASSIGN_OR_RETURN(CampaignPlan prepared, PrepareCampaign(config));
  auto plan = std::make_shared<const CampaignPlan>(std::move(prepared));

  const int sessions = static_cast<int>(grant.leases.size());
  std::vector<int> shard_labels;
  shard_labels.reserve(grant.leases.size());
  for (const ShardLease& lease : grant.leases) {
    shard_labels.push_back(static_cast<int>(lease.shard));
  }

  telemetry::CampaignTelemetry::Options telemetry_options =
      MakeTelemetryOptions(config, sessions);
  telemetry_options.campaign_id = grant.config.campaign_id;
  telemetry_options.board_labels = shard_labels;
  telemetry_options.shared_sink = sink();
  telemetry_options.emit_farm_rows = false;  // the orchestrator owns farm rows
  ASSIGN_OR_RETURN(std::unique_ptr<telemetry::CampaignTelemetry> telemetry,
                   telemetry::CampaignTelemetry::Create(telemetry_options));

  CampaignScheduler::Options scheduler_options =
      MakeSchedulerOptions(config, sessions, plan);
  scheduler_options.registry = &telemetry->campaign_registry();
  scheduler_options.sink = telemetry->sink();
  scheduler_options.shard_ids = shard_labels;
  scheduler_options.track_coverage_delta = true;
  scheduler_options.export_corpus = true;
  CampaignScheduler scheduler(plan->specs, scheduler_options);
  scheduler.SeedCorpus(config.seed_programs);

  // Resync from the grant: the orchestrator's merged campaign state. On a cold
  // single-worker campaign both are empty and these are no-ops.
  if (!grant.coverage.empty()) {
    RETURN_IF_ERROR(scheduler.MergeRemoteCoverage(grant.coverage).status());
  }
  scheduler.AdmitRemotePrograms(ToCorpusPairs(grant.corpus));
  // Upload cursors start after the seeded + granted corpus: only locally
  // discovered programs travel upstream.
  std::vector<std::pair<std::string, uint64_t>> scratch;
  uint64_t corpus_cursor = scheduler.ExportCorpusSince(UINT64_MAX, &scratch);
  size_t bug_cursor = 0;

  // Zero-progress renewal sync for the deploy phase: under host load a serial
  // multi-board deploy can outlast the lease timeout (the fleet bench's top
  // point brings up 64 sessions across 8 processes), and a worker silent that
  // long loses its leases and its connection. Merges from the ack are the
  // pump's usual idempotent set operations; on a single-worker campaign the
  // payloads are empty, so bit-identity with --jobs 1 is untouched.
  auto renew_leases = [&]() -> Result<bool> {
    SyncMsg sync;
    sync.worker_id = worker_id_;
    sync.campaign_id = grant.config.campaign_id;
    sync.seq = ++sync_seq_;
    for (const ShardLease& lease : grant.leases) {
      ShardProgressWire shard;
      shard.lease_id = lease.lease_id;
      shard.shard = lease.shard;
      sync.shards.push_back(shard);
    }
    sync.journal_dropped = sink() != nullptr ? sink()->dropped() : 0;
    RETURN_IF_ERROR(transport->Send({MsgType::kSync, Encode(sync)}));
    ASSIGN_OR_RETURN(Frame reply,
                     transport->Recv(static_cast<int>(lease_timeout_ms_)));
    if (reply.type != MsgType::kSyncAck) {
      return FailedPreconditionError("fleet worker: expected SyncAck");
    }
    ASSIGN_OR_RETURN(SyncAckMsg ack, DecodeSyncAck(reply.payload));
    if (ack.accepted == 0 || !ack.revoked.empty()) {
      return true;  // stale worker or reclaimed lease: abandon the batch
    }
    if (!ack.coverage_delta.empty()) {
      (void)scheduler.MergeRemoteCoverage(ack.coverage_delta);
    }
    scheduler.AdmitRemotePrograms(ToCorpusPairs(ack.corpus));
    return false;
  };

  // Deploy serially on the campaign-global shard seeds, then fuzz. Unlike
  // BoardFarm::Run's concurrent bring-up, this stays on one thread: the lease
  // renewal check runs between deploys, so a slow bring-up cannot outlive its
  // leases unnoticed.
  auto last_renewal = std::chrono::steady_clock::now();
  std::vector<FarmSession> farm(grant.leases.size());
  for (size_t i = 0; i < grant.leases.size(); ++i) {
    auto since_renewal = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - last_renewal);
    if (static_cast<uint64_t>(since_renewal.count()) >= heartbeat_ms_) {
      ASSIGN_OR_RETURN(bool stale, renew_leases());
      if (stale) {
        return FailedPreconditionError(
            "fleet worker: leases reclaimed during deploy");
      }
      last_renewal = std::chrono::steady_clock::now();
    }
    ASSIGN_OR_RETURN(
        farm[i],
        MakeFarmSession(config, *plan,
                        FarmWorkerSeed(config.seed,
                                       static_cast<int>(grant.leases[i].shard)),
                        telemetry->board(static_cast<int>(i))));
  }

  telemetry->CampaignStart(config.os_name, config.board_name);
  telemetry->StartEmitter([&scheduler] { return scheduler.Snapshot(); });

  std::atomic<bool> stop(false);
  std::vector<std::unique_ptr<std::atomic<bool>>> cancels;
  std::vector<std::unique_ptr<FarmProgress>> progress;
  for (size_t i = 0; i < farm.size(); ++i) {
    cancels.push_back(std::make_unique<std::atomic<bool>>(false));
    progress.push_back(std::make_unique<FarmProgress>());
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done_count = 0;
  std::vector<std::thread> threads;
  threads.reserve(farm.size());
  for (size_t i = 0; i < farm.size(); ++i) {
    threads.emplace_back([&, i] {
      RunFarmSession(&farm[i], static_cast<int>(i), &scheduler, &plan->specs,
                     config.budget, config.max_execs, &stop, telemetry->emitter(),
                     cancels[i].get(), progress[i].get());
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++done_count;
      }
      done_cv.notify_all();
    });
  }

  auto join_all = [&] {
    for (std::thread& thread : threads) {
      thread.join();
    }
  };

  // Sync pump: heartbeat cadence while sessions run, one closing sync (with
  // completed flags) after they drain. Runs on this thread — the transport has
  // exactly one user.
  std::vector<bool> reported(farm.size(), false);  // completed or revoked
  Status pump_status = OkStatus();
  bool aborted = false;
  for (;;) {
    bool all_done;
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait_for(lock, std::chrono::milliseconds(heartbeat_ms_),
                       [&] { return done_count == farm.size(); });
      all_done = done_count == farm.size();
    }

    SyncMsg sync;
    sync.worker_id = worker_id_;
    sync.campaign_id = grant.config.campaign_id;
    sync.seq = ++sync_seq_;
    for (size_t i = 0; i < grant.leases.size(); ++i) {
      if (reported[i]) {
        continue;
      }
      ShardProgressWire shard;
      shard.lease_id = grant.leases[i].lease_id;
      shard.shard = grant.leases[i].shard;
      shard.elapsed_us = progress[i]->elapsed_us.load(std::memory_order_relaxed);
      shard.execs = progress[i]->execs.load(std::memory_order_relaxed);
      bool completed = progress[i]->done.load(std::memory_order_acquire) &&
                       farm[i].status.ok() &&
                       !cancels[i]->load(std::memory_order_relaxed) &&
                       !stop.load(std::memory_order_relaxed);
      shard.completed = completed ? 1 : 0;
      if (completed) {
        reported[i] = true;
      }
      sync.shards.push_back(shard);
    }
    sync.coverage_delta = scheduler.TakeCoverageDelta();
    std::vector<std::pair<std::string, uint64_t>> fresh_corpus;
    corpus_cursor = scheduler.ExportCorpusSince(corpus_cursor, &fresh_corpus);
    sync.corpus = ToCorpusWire(fresh_corpus);
    std::vector<BugReport> fresh_bugs = scheduler.BugsSince(bug_cursor);
    bug_cursor += fresh_bugs.size();
    for (const BugReport& bug : fresh_bugs) {
      sync.bugs.push_back(ToWireBug(bug));
    }
    sync.journal_dropped = sink() != nullptr ? sink()->dropped() : 0;

    pump_status = transport->Send({MsgType::kSync, Encode(sync)});
    if (pump_status.ok()) {
      Result<Frame> reply =
          transport->Recv(static_cast<int>(lease_timeout_ms_));
      if (!reply.ok()) {
        pump_status = reply.status();
      } else if (reply.value().type != MsgType::kSyncAck) {
        pump_status = FailedPreconditionError("fleet worker: expected SyncAck");
      } else {
        Result<SyncAckMsg> ack_or = DecodeSyncAck(reply.value().payload);
        if (!ack_or.ok()) {
          pump_status = ack_or.status();
        } else {
          const SyncAckMsg& ack = ack_or.value();
          if (ack.accepted == 0) {
            aborted = true;
          } else {
            if (!ack.coverage_delta.empty()) {
              (void)scheduler.MergeRemoteCoverage(ack.coverage_delta);
            }
            // Peer programs re-export upstream on the next sync; the
            // orchestrator's content hash dedups them, so no cursor surgery.
            scheduler.AdmitRemotePrograms(ToCorpusPairs(ack.corpus));
            for (uint64_t lease_id : ack.revoked) {
              for (size_t i = 0; i < grant.leases.size(); ++i) {
                if (grant.leases[i].lease_id == lease_id) {
                  cancels[i]->store(true, std::memory_order_relaxed);
                  reported[i] = true;
                }
              }
            }
          }
        }
      }
    }
    if (!pump_status.ok() || aborted) {
      stop.store(true, std::memory_order_relaxed);
      break;
    }
    if (all_done) {
      break;
    }
  }

  join_all();
  if (aborted) {
    return FailedPreconditionError("fleet worker: batch rejected by orchestrator");
  }
  RETURN_IF_ERROR(pump_status);
  for (const FarmSession& session : farm) {
    RETURN_IF_ERROR(session.status);
  }

  telemetry::MetricsSnapshot merged = telemetry->MergedBoardSnapshot();
  VirtualTime elapsed = 0;
  for (FarmSession& session : farm) {
    elapsed = std::max(elapsed, session.executor->Elapsed());
  }
  CampaignResult result = scheduler.Finalize(
      ExecStatsFromSnapshot(merged), elapsed, DebugPortStatsFromSnapshot(merged));
  telemetry->CampaignEnd(elapsed);
  result.journal_dropped = telemetry->journal_dropped();

  WorkerFinalMsg final;
  final.worker_id = worker_id_;
  final.campaign_id = grant.config.campaign_id;
  final.seq = ++sync_seq_;
  final.elapsed_us = result.elapsed;
  final.journal_dropped = result.journal_dropped;
  final.metrics = std::move(merged);
  final.metrics.Merge(telemetry->campaign_registry().Snapshot());
  for (const CampaignSample& sample : result.series) {
    final.series.emplace_back(sample.time, sample.coverage);
  }
  RETURN_IF_ERROR(transport->Send({MsgType::kWorkerFinal, Encode(final)}));
  ASSIGN_OR_RETURN(Frame final_reply,
                   transport->Recv(static_cast<int>(lease_timeout_ms_)));
  if (final_reply.type != MsgType::kFinalAck) {
    return FailedPreconditionError("fleet worker: expected FinalAck");
  }
  return result;
}

}  // namespace fleet
}  // namespace eof
