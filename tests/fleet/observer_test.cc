// Observability-plane fleet tests: StatusRequest/StatusReply wire codecs,
// HandleStatus aggregation and its bounded-staleness cache, the observer's
// zero-perturbation guarantee (an observed fleet run produces bit-identical
// campaign results to an unobserved one), the loopback FetchStatus poll, the
// /metrics HTTP endpoint, and the eof-top / fleet-metrics renderers (pinned by
// goldens over a scripted two-campaign fleet).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coverage_serial.h"
#include "src/core/fuzzer.h"
#include "src/fleet/observer.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/proto.h"
#include "src/fleet/status_http.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/os/all_oses.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/prometheus.h"

namespace eof {
namespace fleet {
namespace {

FuzzerConfig TinyConfig(uint64_t seed = 7) {
  FuzzerConfig config;
  config.os_name = "zephyr";
  config.seed = seed;
  config.budget = 30 * kVirtualSecond;
  config.sample_points = 4;
  return config;
}

// Goldens for TwoCampaignHistory below: the eof-top frame byte for byte, and
// the /metrics exposition as its sorted set of lines.
const char kTopFrameGolden[] = R"(eof top | server t=6190ms | snapshot age 0ms (bound 100ms) | campaigns 2 | workers 2
campaign alpha zephyr/default | budget 30.0s
  shards 3: 1 pending / 1 leased / 1 done | frontier 6.00s
  coverage 4 | corpus 2 | execs 1150 | crashes 0 | bugs 1
  leases granted 4 reclaimed 2 | rejected uploads 1 | workers lost 1 | corpus syncs 1
  journal drops: orchestrator 0, workers 3
  rate 69.4 execs/s  [█▁]
  shard  phase    worker  attempt  execs        elapsed_s
      0  done          2        2  900          30.00
      1  leased        2        2  250          6.00
      2  pending       0        0  0            0.00
  bug 4 log/assertion board 1 t=2.10s "ASSERT: k_msgq"
campaign beta zephyr/nrf52840dk | budget 30.0s
  shards 1: 0 pending / 0 leased / 1 done | frontier 30.00s
  coverage 1 | corpus 1 | execs 800 | crashes 3 | bugs 0
  leases granted 1 reclaimed 0 | rejected uploads 0 | workers lost 0 | corpus syncs 1
  journal drops: orchestrator 0, workers 1
  rate 0.0 execs/s  [█▁]
  shard  phase    worker  attempt  execs        elapsed_s
      0  done          2        1  800          30.00
workers:
  id  name              leases  execs        syncs  dropped  sync_age_ms
   1  rack0/a                0  800              2        2  5190        LOST
   2  rack1/b                1  1950             2        1  40         
)";

const char kFleetMetricsSortedGolden[] = R"(# TYPE eof_fleet_campaign_budget_us gauge
# TYPE eof_fleet_campaign_bugs gauge
# TYPE eof_fleet_campaign_corpus gauge
# TYPE eof_fleet_campaign_coverage gauge
# TYPE eof_fleet_campaign_crashes_total counter
# TYPE eof_fleet_campaign_execs_total counter
# TYPE eof_fleet_campaign_finalized gauge
# TYPE eof_fleet_campaign_frontier_us gauge
# TYPE eof_fleet_corpus_syncs_total counter
# TYPE eof_fleet_heartbeat_interval_ms gauge
# TYPE eof_fleet_journal_dropped_total counter
# TYPE eof_fleet_leases_granted_total counter
# TYPE eof_fleet_leases_reclaimed_total counter
# TYPE eof_fleet_rejected_uploads_total counter
# TYPE eof_fleet_server_ms gauge
# TYPE eof_fleet_shards gauge
# TYPE eof_fleet_snapshot_age_ms gauge
# TYPE eof_fleet_status_requests_total counter
# TYPE eof_fleet_sync_frames_total counter
# TYPE eof_fleet_sync_payload_bytes histogram
# TYPE eof_fleet_worker_execs_total counter
# TYPE eof_fleet_worker_journal_dropped_total counter
# TYPE eof_fleet_worker_last_seen_ms gauge
# TYPE eof_fleet_worker_leases gauge
# TYPE eof_fleet_worker_lost gauge
# TYPE eof_fleet_worker_syncs_total counter
# TYPE eof_fleet_workers_lost_total counter
eof_fleet_campaign_budget_us{campaign="alpha"} 30000000
eof_fleet_campaign_budget_us{campaign="beta"} 30000000
eof_fleet_campaign_bugs{campaign="alpha"} 1
eof_fleet_campaign_bugs{campaign="beta"} 0
eof_fleet_campaign_corpus{campaign="alpha"} 2
eof_fleet_campaign_corpus{campaign="beta"} 1
eof_fleet_campaign_coverage{campaign="alpha"} 4
eof_fleet_campaign_coverage{campaign="beta"} 1
eof_fleet_campaign_crashes_total{campaign="alpha"} 0
eof_fleet_campaign_crashes_total{campaign="beta"} 3
eof_fleet_campaign_execs_total{campaign="alpha"} 1150
eof_fleet_campaign_execs_total{campaign="beta"} 800
eof_fleet_campaign_finalized{campaign="alpha"} 0
eof_fleet_campaign_finalized{campaign="beta"} 0
eof_fleet_campaign_frontier_us{campaign="alpha"} 6000000
eof_fleet_campaign_frontier_us{campaign="beta"} 30000000
eof_fleet_corpus_syncs_total{campaign="alpha"} 1
eof_fleet_corpus_syncs_total{campaign="beta"} 1
eof_fleet_heartbeat_interval_ms 100
eof_fleet_journal_dropped_total{campaign="alpha",sink="orchestrator"} 0
eof_fleet_journal_dropped_total{campaign="alpha",sink="workers"} 3
eof_fleet_journal_dropped_total{campaign="beta",sink="orchestrator"} 0
eof_fleet_journal_dropped_total{campaign="beta",sink="workers"} 1
eof_fleet_leases_granted_total{campaign="alpha"} 4
eof_fleet_leases_granted_total{campaign="beta"} 1
eof_fleet_leases_reclaimed_total{campaign="alpha"} 2
eof_fleet_leases_reclaimed_total{campaign="beta"} 0
eof_fleet_rejected_uploads_total{campaign="alpha"} 1
eof_fleet_rejected_uploads_total{campaign="beta"} 0
eof_fleet_server_ms 6190
eof_fleet_shards{campaign="alpha",phase="done"} 1
eof_fleet_shards{campaign="alpha",phase="leased"} 1
eof_fleet_shards{campaign="alpha",phase="pending"} 1
eof_fleet_shards{campaign="beta",phase="done"} 1
eof_fleet_shards{campaign="beta",phase="leased"} 0
eof_fleet_shards{campaign="beta",phase="pending"} 0
eof_fleet_snapshot_age_ms 0
eof_fleet_status_requests_total 3
eof_fleet_sync_frames_total 4
eof_fleet_sync_payload_bytes_bucket{le="+Inf"} 4
eof_fleet_sync_payload_bytes_bucket{le="1024"} 4
eof_fleet_sync_payload_bytes_bucket{le="1048576"} 4
eof_fleet_sync_payload_bytes_bucket{le="16384"} 4
eof_fleet_sync_payload_bytes_bucket{le="256"} 3
eof_fleet_sync_payload_bytes_bucket{le="262144"} 4
eof_fleet_sync_payload_bytes_bucket{le="4096"} 4
eof_fleet_sync_payload_bytes_bucket{le="4194304"} 4
eof_fleet_sync_payload_bytes_bucket{le="65536"} 4
eof_fleet_sync_payload_bytes_count 4
eof_fleet_sync_payload_bytes_sum 620
eof_fleet_worker_execs_total{worker="rack0/a",id="1"} 800
eof_fleet_worker_execs_total{worker="rack1/b",id="2"} 1950
eof_fleet_worker_journal_dropped_total{worker="rack0/a",id="1"} 2
eof_fleet_worker_journal_dropped_total{worker="rack1/b",id="2"} 1
eof_fleet_worker_last_seen_ms{worker="rack0/a",id="1"} 1000
eof_fleet_worker_last_seen_ms{worker="rack1/b",id="2"} 6150
eof_fleet_worker_leases{worker="rack0/a",id="1"} 0
eof_fleet_worker_leases{worker="rack1/b",id="2"} 1
eof_fleet_worker_lost{worker="rack0/a",id="1"} 1
eof_fleet_worker_lost{worker="rack1/b",id="2"} 0
eof_fleet_worker_syncs_total{worker="rack0/a",id="1"} 2
eof_fleet_worker_syncs_total{worker="rack1/b",id="2"} 2
eof_fleet_workers_lost_total{campaign="alpha"} 1
eof_fleet_workers_lost_total{campaign="beta"} 0
)";

StatusReplyMsg FullReply() {
  StatusReplyMsg reply;
  reply.server_ms = 123456;
  reply.assembled_ms = 123400;
  reply.heartbeat_interval_ms = 250;
  CampaignStatusWire campaign;
  campaign.campaign_id = "c1";
  campaign.os_name = "zephyr";
  campaign.board_name = "default";
  campaign.budget_us = 30000000;
  campaign.shards_total = 4;
  campaign.shards_pending = 1;
  campaign.shards_leased = 2;
  campaign.shards_done = 1;
  campaign.metrics.gauges = {{"fleet.campaign.coverage", 234},
                             {"fleet.campaign.corpus", 17},
                             {"fleet.campaign.frontier_us", 1500000}};
  campaign.metrics.counters = {{"fleet.campaign.execs", 9001},
                               {"fleet.campaign.crashes", 2},
                               {"fleet.leases_granted", 5},
                               {"fleet.leases_reclaimed", 1},
                               {"fleet.rejected_uploads", 3},
                               {"fleet.workers_lost", 1},
                               {"fleet.corpus_syncs", 8}};
  campaign.journal_dropped = 4;
  campaign.journal_dropped_workers = 11;
  campaign.finalized = 1;
  ShardState shard;
  shard.shard = 2;
  shard.phase = ShardPhase::kLeased;
  shard.lease_id = 42;
  shard.worker = 7;
  shard.attempt = 3;
  shard.deadline_ms = 124000;
  shard.elapsed_us = 2500000;
  shard.execs = 321;
  campaign.shards.push_back(shard);
  BugStatusWire bug;
  bug.catalog_id = 9;
  bug.detector = "exception";
  bug.kind = "double free";
  bug.excerpt = "PANIC: double\nfree";
  bug.at_us = 777;
  bug.board = 1;
  campaign.bugs.push_back(bug);
  reply.campaigns.push_back(campaign);
  WorkerStatusWire worker;
  worker.worker_id = 7;
  worker.name = "rack0/w7";
  worker.last_seen_ms = 123300;
  worker.lost = 0;
  worker.execs = 4567;
  worker.leases = 2;
  worker.syncs = 31;
  worker.journal_dropped = 6;
  reply.workers.push_back(worker);
  return reply;
}

TEST(StatusProtoTest, RequestRoundtrip) {
  StatusRequestMsg request;
  request.campaign_id = "only-this";
  request.include_shards = 0;
  auto decoded = DecodeStatusRequest(Encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->campaign_id, "only-this");
  EXPECT_EQ(decoded->include_shards, 0);
}

TEST(StatusProtoTest, ReplyRoundtripPreservesEveryField) {
  StatusReplyMsg reply = FullReply();
  auto decoded = DecodeStatusReply(Encode(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->server_ms, 123456u);
  EXPECT_EQ(decoded->assembled_ms, 123400u);
  EXPECT_EQ(decoded->heartbeat_interval_ms, 250u);
  ASSERT_EQ(decoded->campaigns.size(), 1u);
  const CampaignStatusWire& campaign = decoded->campaigns[0];
  EXPECT_EQ(campaign.campaign_id, "c1");
  EXPECT_EQ(campaign.os_name, "zephyr");
  EXPECT_EQ(campaign.board_name, "default");
  EXPECT_EQ(campaign.budget_us, 30000000u);
  EXPECT_EQ(campaign.shards_total, 4u);
  EXPECT_EQ(campaign.shards_pending, 1u);
  EXPECT_EQ(campaign.shards_leased, 2u);
  EXPECT_EQ(campaign.shards_done, 1u);
  EXPECT_EQ(campaign.metrics.GaugeValue("fleet.campaign.coverage"), 234u);
  EXPECT_EQ(campaign.metrics.GaugeValue("fleet.campaign.corpus"), 17u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.campaign.execs"), 9001u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.campaign.crashes"), 2u);
  EXPECT_EQ(campaign.metrics.GaugeValue("fleet.campaign.frontier_us"), 1500000u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.leases_granted"), 5u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.leases_reclaimed"), 1u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.rejected_uploads"), 3u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.workers_lost"), 1u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.corpus_syncs"), 8u);
  EXPECT_EQ(campaign.journal_dropped, 4u);
  EXPECT_EQ(campaign.journal_dropped_workers, 11u);
  EXPECT_EQ(campaign.finalized, 1u);
  ASSERT_EQ(campaign.shards.size(), 1u);
  EXPECT_EQ(campaign.shards[0].shard, 2u);
  EXPECT_EQ(campaign.shards[0].phase, ShardPhase::kLeased);
  EXPECT_EQ(campaign.shards[0].lease_id, 42u);
  EXPECT_EQ(campaign.shards[0].worker, 7u);
  EXPECT_EQ(campaign.shards[0].attempt, 3u);
  EXPECT_EQ(campaign.shards[0].deadline_ms, 124000u);
  EXPECT_EQ(campaign.shards[0].elapsed_us, 2500000u);
  EXPECT_EQ(campaign.shards[0].execs, 321u);
  ASSERT_EQ(campaign.bugs.size(), 1u);
  EXPECT_EQ(campaign.bugs[0].catalog_id, 9u);
  EXPECT_EQ(campaign.bugs[0].detector, "exception");
  EXPECT_EQ(campaign.bugs[0].kind, "double free");
  EXPECT_EQ(campaign.bugs[0].excerpt, "PANIC: double\nfree");
  EXPECT_EQ(campaign.bugs[0].at_us, 777u);
  EXPECT_EQ(campaign.bugs[0].board, 1u);
  ASSERT_EQ(decoded->workers.size(), 1u);
  EXPECT_EQ(decoded->workers[0].worker_id, 7u);
  EXPECT_EQ(decoded->workers[0].name, "rack0/w7");
  EXPECT_EQ(decoded->workers[0].last_seen_ms, 123300u);
  EXPECT_EQ(decoded->workers[0].lost, 0u);
  EXPECT_EQ(decoded->workers[0].execs, 4567u);
  EXPECT_EQ(decoded->workers[0].leases, 2u);
  EXPECT_EQ(decoded->workers[0].syncs, 31u);
  EXPECT_EQ(decoded->workers[0].journal_dropped, 6u);
}

TEST(StatusProtoTest, ReplyRejectsTruncationAndTrailingBytes) {
  std::vector<uint8_t> payload = Encode(FullReply());
  // Every strict prefix must fail to decode — no partial-read acceptance.
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeStatusReply(cut).ok()) << "prefix length " << len;
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(DecodeStatusReply(padded).ok());
}

class ObserverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  std::unique_ptr<Orchestrator> Make(int pool = 64) {
    Orchestrator::Options options;
    options.board_pool = pool;
    options.heartbeat_interval_ms = 100;
    options.lease_timeout_ms = 1000;
    options.sink = &sink_;
    options.clock_ms = [this] { return now_ms_; };
    auto orchestrator = Orchestrator::Create(std::move(options));
    EXPECT_TRUE(orchestrator.ok());
    return std::move(orchestrator).value();
  }

  static uint32_t SayHello(Transport* t, const std::string& name) {
    Frame hello{MsgType::kHello, Encode(HelloMsg{name, 4})};
    EXPECT_TRUE(t->Send(hello).ok());
    auto ack = t->Recv(2000);
    EXPECT_TRUE(ack.ok());
    auto decoded = DecodeHelloAck(ack->payload);
    EXPECT_TRUE(decoded.ok());
    return decoded->worker_id;
  }

  static Result<LeaseGrantMsg> AskForWork(Transport* t, uint32_t worker_id,
                                          uint32_t capacity) {
    Frame request{MsgType::kLeaseRequest,
                  Encode(LeaseRequestMsg{worker_id, capacity})};
    RETURN_IF_ERROR(t->Send(request));
    ASSIGN_OR_RETURN(Frame reply, t->Recv(2000));
    if (reply.type == MsgType::kNoWork) {
      return UnavailableError("no work");
    }
    return DecodeLeaseGrant(reply.payload);
  }

  telemetry::MemoryEventSink sink_;
  uint64_t now_ms_ = 1000;
};

TEST_F(ObserverTest, HandleStatusAggregatesCampaignWorkerAndShardState) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 2;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  uint32_t worker_id = SayHello(client.get(), "w0");
  auto grant = AskForWork(client.get(), worker_id, 2);
  ASSERT_TRUE(grant.ok());
  ASSERT_EQ(grant->leases.size(), 2u);

  SyncMsg sync;
  sync.worker_id = worker_id;
  sync.campaign_id = "c";
  sync.seq = 1;
  sync.shards.push_back({grant->leases[0].lease_id, grant->leases[0].shard,
                         5000000, 500, 0});
  sync.coverage_delta = SerializeCoverageIds({11, 22}, CoverageWireKind::kDiff);
  BugReport bug;
  bug.catalog_id = 3;
  bug.detector = "exception";
  bug.kind = "crash";
  bug.excerpt = "PANIC: null deref";
  sync.bugs.push_back(bug);
  sync.journal_dropped = 9;
  ASSERT_TRUE(client->Send({MsgType::kSync, Encode(sync)}).ok());
  ASSERT_TRUE(client->Recv(2000).ok());

  StatusReplyMsg status = orchestrator->HandleStatus(StatusRequestMsg{});
  EXPECT_EQ(status.server_ms, 1000u);
  EXPECT_EQ(status.assembled_ms, 1000u);
  EXPECT_EQ(status.heartbeat_interval_ms, 100u);
  ASSERT_EQ(status.campaigns.size(), 1u);
  const CampaignStatusWire& campaign = status.campaigns[0];
  EXPECT_EQ(campaign.campaign_id, "c");
  EXPECT_EQ(campaign.os_name, "zephyr");
  EXPECT_EQ(campaign.shards_total, 2u);
  EXPECT_EQ(campaign.shards_pending, 0u);
  EXPECT_EQ(campaign.shards_leased, 2u);
  EXPECT_EQ(campaign.shards_done, 0u);
  EXPECT_EQ(campaign.metrics.GaugeValue("fleet.campaign.coverage"), 2u);
  // live lease progress, no finals yet
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.campaign.execs"), 500u);
  EXPECT_EQ(campaign.metrics.CounterValue("fleet.leases_granted"), 2u);
  EXPECT_EQ(campaign.journal_dropped_workers, 9u);
  EXPECT_EQ(campaign.finalized, 0u);
  ASSERT_EQ(campaign.bugs.size(), 1u);
  EXPECT_EQ(campaign.bugs[0].catalog_id, 3u);
  EXPECT_EQ(campaign.bugs[0].excerpt, "PANIC: null deref");
  ASSERT_EQ(campaign.shards.size(), 2u);
  uint64_t synced_execs = 0;
  for (const ShardState& shard : campaign.shards) {
    EXPECT_EQ(shard.phase, ShardPhase::kLeased);
    EXPECT_EQ(shard.worker, worker_id);
    EXPECT_EQ(shard.attempt, 1u);
    synced_execs += shard.execs;
  }
  EXPECT_EQ(synced_execs, 500u);
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].name, "w0");
  EXPECT_EQ(status.workers[0].worker_id, worker_id);
  EXPECT_EQ(status.workers[0].lost, 0u);
  EXPECT_EQ(status.workers[0].execs, 500u);
  EXPECT_EQ(status.workers[0].leases, 2u);
  EXPECT_EQ(status.workers[0].syncs, 1u);
  EXPECT_EQ(status.workers[0].journal_dropped, 9u);

  // include_shards=0 strips the lease table but keeps the phase counters.
  StatusRequestMsg no_shards;
  no_shards.include_shards = 0;
  StatusReplyMsg lean = orchestrator->HandleStatus(no_shards);
  ASSERT_EQ(lean.campaigns.size(), 1u);
  EXPECT_TRUE(lean.campaigns[0].shards.empty());
  EXPECT_EQ(lean.campaigns[0].shards_leased, 2u);

  // A campaign filter that matches nothing returns an empty campaign list
  // (workers are global and still present).
  StatusRequestMsg filtered;
  filtered.campaign_id = "no-such-campaign";
  EXPECT_TRUE(orchestrator->HandleStatus(filtered).campaigns.empty());

  // The poll path left the campaign untouched: same grant state, no journal
  // rows beyond the scripted worker's own.
  EXPECT_EQ(orchestrator->CompletedShards("c"), 0);

  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{worker_id})});
  client->Close();
  handler.join();
}

TEST_F(ObserverTest, StatusSnapshotHasBoundedStaleness) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 2;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  // First poll assembles a snapshot at t=1000: all shards pending.
  StatusReplyMsg first = orchestrator->HandleStatus(StatusRequestMsg{});
  EXPECT_EQ(first.assembled_ms, 1000u);
  ASSERT_EQ(first.campaigns.size(), 1u);
  EXPECT_EQ(first.campaigns[0].shards_pending, 2u);

  // State changes: a worker takes both shards.
  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  uint32_t worker_id = SayHello(client.get(), "w0");
  ASSERT_TRUE(AskForWork(client.get(), worker_id, 2).ok());

  // Within the heartbeat interval the cached snapshot is served: the lease is
  // invisible, but server_ms is stamped fresh — that skew IS the advertised
  // snapshot age.
  now_ms_ = 1050;
  StatusReplyMsg cached = orchestrator->HandleStatus(StatusRequestMsg{});
  EXPECT_EQ(cached.server_ms, 1050u);
  EXPECT_EQ(cached.assembled_ms, 1000u);
  ASSERT_EQ(cached.campaigns.size(), 1u);
  EXPECT_EQ(cached.campaigns[0].shards_pending, 2u);
  EXPECT_EQ(cached.campaigns[0].shards_leased, 0u);

  // Past the interval the next poll re-assembles and sees the leases.
  now_ms_ = 1101;
  StatusReplyMsg fresh = orchestrator->HandleStatus(StatusRequestMsg{});
  EXPECT_EQ(fresh.assembled_ms, 1101u);
  ASSERT_EQ(fresh.campaigns.size(), 1u);
  EXPECT_EQ(fresh.campaigns[0].shards_pending, 0u);
  EXPECT_EQ(fresh.campaigns[0].shards_leased, 2u);

  // The status path itself is instrumented.
  auto snapshot = orchestrator->MetricsSnapshot();
  auto it = snapshot.counters.find("fleet.status_requests");
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_EQ(it->second, 3u);

  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{worker_id})});
  client->Close();
  handler.join();
}

TEST_F(ObserverTest, FetchStatusPollsOverLoopback) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 1;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  auto status = FetchStatus(client.get(), "", /*include_shards=*/true,
                            /*timeout_ms=*/2000);
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(status->campaigns.size(), 1u);
  EXPECT_EQ(status->campaigns[0].campaign_id, "c");
  EXPECT_EQ(status->campaigns[0].shards_total, 1u);
  EXPECT_EQ(status->heartbeat_interval_ms, 100u);
  EXPECT_TRUE(status->workers.empty());  // observers are not workers
  client->Close();
  handler.join();
}

// The acceptance bar for the whole observer role: a fleet run polled by a
// concurrent observer ends with exactly the same merged campaign outcome as an
// unobserved run of the same spec. One shard / capacity one keeps the worker
// single-session and therefore bit-deterministic (two concurrent sessions
// interleave corpus admission on thread timing — see fleet_differential_test),
// so any observer-induced perturbation shows up as a hard diff.
TEST_F(ObserverTest, ObserverPollingPerturbsNothing) {
  auto run = [](bool observed, telemetry::MemoryEventSink* sink,
                uint64_t* status_polls) {
    Orchestrator::Options options;
    options.board_pool = 64;
    options.heartbeat_interval_ms = 100;
    options.lease_timeout_ms = 1000;
    options.sink = sink;
    auto orchestrator = Orchestrator::Create(std::move(options));
    EXPECT_TRUE(orchestrator.ok());
    FleetCampaignSpec spec;
    spec.campaign_id = "diff";
    spec.config = TinyConfig();
    spec.shards = 1;
    EXPECT_TRUE(orchestrator.value()->AddCampaign(spec).ok());

    auto [client, server] = LoopbackPair();
    std::thread handler(
        [&] { orchestrator.value()->ServeConnection(server.get()); });

    std::atomic<bool> done{false};
    std::thread poller([&] {
      if (!observed) {
        return;
      }
      while (!done.load()) {
        auto [observer_client, observer_server] = LoopbackPair();
        std::thread observer_handler([&] {
          orchestrator.value()->ServeConnection(observer_server.get());
        });
        auto status = FetchStatus(observer_client.get(), "", true, 2000);
        EXPECT_TRUE(status.ok());
        if (status_polls != nullptr) {
          ++*status_polls;
        }
        observer_client->Close();
        observer_handler.join();
      }
    });

    telemetry::MemoryEventSink worker_sink;
    FleetWorker::Options worker_options;
    worker_options.name = "w0";
    worker_options.capacity = 1;
    worker_options.sink = &worker_sink;
    auto worker = FleetWorker::Create(std::move(worker_options));
    EXPECT_TRUE(worker.ok());
    Status ran = worker.value()->Run(client.get());
    EXPECT_TRUE(ran.ok()) << ran.ToString();
    done.store(true);
    handler.join();
    poller.join();
    return orchestrator.value()->Results();
  };

  telemetry::MemoryEventSink baseline_sink;
  telemetry::MemoryEventSink observed_sink;
  uint64_t polls = 0;
  auto baseline = run(/*observed=*/false, &baseline_sink, nullptr);
  auto observed = run(/*observed=*/true, &observed_sink, &polls);
  EXPECT_GT(polls, 0u);  // the observer actually ran against the live campaign

  ASSERT_EQ(baseline.size(), 1u);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].result.final_coverage, baseline[0].result.final_coverage);
  EXPECT_EQ(observed[0].result.execs, baseline[0].result.execs);
  EXPECT_EQ(observed[0].result.crashes, baseline[0].result.crashes);
  EXPECT_EQ(observed[0].result.corpus_size, baseline[0].result.corpus_size);
  EXPECT_EQ(observed[0].result.corpus_programs, baseline[0].result.corpus_programs);
  EXPECT_EQ(observed[0].result.elapsed, baseline[0].result.elapsed);
  EXPECT_TRUE(observed[0].result.bugs == baseline[0].result.bugs);
  for (const char* counter : {"fleet.leases_granted", "fleet.leases_reclaimed",
                              "fleet.rejected_uploads", "fleet.corpus_syncs"}) {
    EXPECT_EQ(observed[0].metrics.CounterValue(counter),
              baseline[0].metrics.CounterValue(counter))
        << counter;
  }

  // The fleet journals agree row-type-for-row-type: status polls add nothing.
  auto count = [](const telemetry::MemoryEventSink& sink,
                  const std::string& type) {
    uint64_t n = 0;
    for (const telemetry::Event& event : sink.Events()) {
      n += event.type == type ? 1 : 0;
    }
    return n;
  };
  for (const char* type : {"lease_grant", "lease_complete", "lease_reclaim",
                           "worker_lost", "worker_final", "campaign_end"}) {
    EXPECT_EQ(count(observed_sink, type), count(baseline_sink, type)) << type;
  }
}

// Scripts two campaigns through every live status counter on the fake clock:
// leases granted and reclaimed, a lost worker, a rejected upload, corpus
// syncs, merged coverage, a bug, a final with crashes, journal drops, and
// shards in all three phases. Returns three polls, oldest first.
std::vector<StatusReplyMsg> TwoCampaignHistory(Orchestrator* orchestrator,
                                               uint64_t* now_ms) {
  FleetCampaignSpec alpha;
  alpha.campaign_id = "alpha";
  alpha.config = TinyConfig();
  alpha.shards = 3;
  EXPECT_TRUE(orchestrator->AddCampaign(alpha).ok());
  FleetCampaignSpec beta;
  beta.campaign_id = "beta";
  beta.config = TinyConfig(9);
  beta.config.board_name = "nrf52840dk";
  beta.shards = 1;
  EXPECT_TRUE(orchestrator->AddCampaign(beta).ok());

  auto hello = [](Transport* t, const std::string& name) {
    EXPECT_TRUE(t->Send({MsgType::kHello, Encode(HelloMsg{name, 2})}).ok());
    auto ack = t->Recv(2000);
    EXPECT_TRUE(ack.ok());
    return DecodeHelloAck(ack->payload).value().worker_id;
  };
  auto grant = [](Transport* t, uint32_t worker_id, uint32_t capacity) {
    EXPECT_TRUE(
        t->Send({MsgType::kLeaseRequest, Encode(LeaseRequestMsg{worker_id, capacity})})
            .ok());
    auto reply = t->Recv(2000);
    EXPECT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MsgType::kLeaseGrant);
    return DecodeLeaseGrant(reply->payload).value();
  };
  auto sync = [](Transport* t, const SyncMsg& msg) {
    EXPECT_TRUE(t->Send({MsgType::kSync, Encode(msg)}).ok());
    EXPECT_TRUE(t->Recv(2000).ok());
  };

  auto [a_client, a_server] = LoopbackPair();
  auto [b_client, b_server] = LoopbackPair();
  std::thread a_handler([&] { orchestrator->ServeConnection(a_server.get()); });
  std::thread b_handler([&] { orchestrator->ServeConnection(b_server.get()); });
  uint32_t a_id = hello(a_client.get(), "rack0/a");
  uint32_t b_id = hello(b_client.get(), "rack1/b");
  LeaseGrantMsg a_grant = grant(a_client.get(), a_id, 2);  // alpha shards 0, 1
  LeaseGrantMsg b_grant = grant(b_client.get(), b_id, 1);  // beta shard 0
  EXPECT_EQ(a_grant.campaign_id, "alpha");
  EXPECT_EQ(b_grant.campaign_id, "beta");

  std::vector<StatusReplyMsg> history;
  history.push_back(orchestrator->HandleStatus(StatusRequestMsg{}));

  SyncMsg a_sync;
  a_sync.worker_id = a_id;
  a_sync.campaign_id = "alpha";
  a_sync.seq = 1;
  a_sync.shards.push_back({a_grant.leases[0].lease_id, 0, 5000000, 500, 0});
  a_sync.shards.push_back({a_grant.leases[1].lease_id, 1, 4000000, 300, 0});
  a_sync.coverage_delta = SerializeCoverageIds({11, 22, 33}, CoverageWireKind::kDiff);
  a_sync.corpus = {{"prog-a1", 2}, {"prog-a2", 1}};
  BugReport bug;
  bug.catalog_id = 4;
  bug.detector = "log";
  bug.kind = "assertion";
  bug.excerpt = "ASSERT: k_msgq";
  bug.at = 2100000;
  bug.board = 1;
  a_sync.bugs.push_back(bug);
  a_sync.journal_dropped = 2;
  sync(a_client.get(), a_sync);
  SyncMsg a_bad = a_sync;
  a_bad.seq = 2;
  a_bad.coverage_delta = {0xde, 0xad};  // malformed: a rejected upload
  a_bad.corpus.clear();
  a_bad.bugs.clear();
  sync(a_client.get(), a_bad);

  SyncMsg b_sync;
  b_sync.worker_id = b_id;
  b_sync.campaign_id = "beta";
  b_sync.seq = 1;
  b_sync.shards.push_back({b_grant.leases[0].lease_id, 0, 30000000, 800, 1});
  b_sync.coverage_delta = SerializeCoverageIds({5}, CoverageWireKind::kDiff);
  b_sync.corpus = {{"prog-b1", 1}};
  sync(b_client.get(), b_sync);
  WorkerFinalMsg b_final;
  b_final.worker_id = b_id;
  b_final.campaign_id = "beta";
  b_final.seq = 1;
  b_final.elapsed_us = 30000000;
  b_final.journal_dropped = 1;
  b_final.metrics.counters = {{"campaign.execs", 800}, {"campaign.crashes", 3}};
  b_final.metrics.gauges = {{"campaign.coverage", 1}};
  EXPECT_TRUE(b_client->Send({MsgType::kWorkerFinal, Encode(b_final)}).ok());
  EXPECT_TRUE(b_client->Recv(2000).ok());

  *now_ms += 150;
  history.push_back(orchestrator->HandleStatus(StatusRequestMsg{}));

  // Worker a goes silent: its two alpha leases reclaim and b picks them up.
  *now_ms += 5000;
  orchestrator->ReapExpiredLeases();
  LeaseGrantMsg b_regrant = grant(b_client.get(), b_id, 2);
  EXPECT_EQ(b_regrant.campaign_id, "alpha");
  SyncMsg b_alpha;
  b_alpha.worker_id = b_id;
  b_alpha.campaign_id = "alpha";
  b_alpha.seq = 2;
  b_alpha.shards.push_back({b_regrant.leases[0].lease_id, b_regrant.leases[0].shard,
                            30000000, 900, 1});
  b_alpha.shards.push_back({b_regrant.leases[1].lease_id, b_regrant.leases[1].shard,
                            6000000, 250, 0});
  b_alpha.coverage_delta = SerializeCoverageIds({33, 44}, CoverageWireKind::kDiff);
  b_alpha.journal_dropped = 1;
  sync(b_client.get(), b_alpha);

  *now_ms += 40;
  history.push_back(orchestrator->HandleStatus(StatusRequestMsg{}));

  a_client->Close();
  b_client->Close();
  a_handler.join();
  b_handler.join();
  return history;
}

// The eof-top frame over the two-campaign script, byte for byte: every line,
// its order, and its formatting are part of the operator interface.
TEST_F(ObserverTest, TopFrameGolden) {
  auto orchestrator = Make();
  std::vector<StatusReplyMsg> history = TwoCampaignHistory(orchestrator.get(), &now_ms_);
  EXPECT_EQ(RenderTopFrame(history), kTopFrameGolden);
}

// /metrics over the same script: the set of lines (families, types, label sets,
// values) is pinned, and no family is announced twice.
TEST_F(ObserverTest, FleetMetricsGolden) {
  auto orchestrator = Make();
  std::vector<StatusReplyMsg> history = TwoCampaignHistory(orchestrator.get(), &now_ms_);
  std::string out = RenderFleetMetrics(history.back(), orchestrator->MetricsSnapshot());
  std::vector<std::string> lines;
  std::set<std::string> types;
  size_t begin = 0;
  while (begin < out.size()) {
    size_t end = out.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    std::string line = out.substr(begin, end - begin);
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(types.insert(family).second) << "# TYPE repeats: " << family;
    }
    lines.push_back(std::move(line));
    begin = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string sorted;
  for (const std::string& line : lines) {
    sorted += line + "\n";
  }
  EXPECT_EQ(sorted, kFleetMetricsSortedGolden);
}

// Raw HTTP client: one request, read to EOF (the server closes per request).
std::string HttpRequest(uint16_t port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(StatusHttpTest, ServesMetricsHealthzAndErrors) {
  StatusHttpServer::Handlers handlers;
  handlers.metrics = [] { return std::string("eof_fleet_server_ms 42\n"); };
  auto server = StatusHttpServer::Start(/*port=*/0, handlers);
  ASSERT_TRUE(server.ok());
  uint16_t port = server.value()->bound_port();
  ASSERT_GT(port, 0u);

  std::string metrics =
      HttpRequest(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find(telemetry::kPrometheusContentType), std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Length: 23"), std::string::npos);
  EXPECT_NE(metrics.find("\r\n\r\neof_fleet_server_ms 42\n"), std::string::npos);

  std::string healthz =
      HttpRequest(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\r\n\r\nok\n"), std::string::npos);

  std::string missing =
      HttpRequest(port, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  std::string bad_method =
      HttpRequest(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(bad_method.find("HTTP/1.1 405"), std::string::npos);

  server.value()->Stop();
  server.value()->Stop();  // idempotent
}

TEST(RenderTopFrameTest, RendersCampaignTableHighlightsAndSparkline) {
  EXPECT_EQ(RenderTopFrame({}), "eof top | no status yet\n");

  // Three polls, one second apart: coverage flat (plateau), execs climbing
  // unevenly (sparkline), one live worker, one lost, one silent (stalled).
  std::vector<StatusReplyMsg> history;
  for (int i = 0; i < 3; ++i) {
    StatusReplyMsg poll = FullReply();
    poll.server_ms = 1000 + 1000 * static_cast<uint64_t>(i);
    poll.assembled_ms = poll.server_ms - 60;
    poll.heartbeat_interval_ms = 100;
    poll.campaigns[0].metrics.gauges["fleet.campaign.coverage"] = 234;  // unchanged
    static const uint64_t kExecs[] = {1000, 1100, 9500};  // rates 100 then 8400
    poll.campaigns[0].metrics.counters["fleet.campaign.execs"] = kExecs[i];
    poll.campaigns[0].finalized = 0;
    poll.workers[0].last_seen_ms = poll.server_ms - 50;
    WorkerStatusWire lost;
    lost.worker_id = 8;
    lost.name = "gone";
    lost.lost = 1;
    poll.workers.push_back(lost);
    WorkerStatusWire silent;
    silent.worker_id = 9;
    silent.name = "quiet";
    silent.last_seen_ms = 500;  // ages past 3 heartbeats immediately
    poll.workers.push_back(silent);
    history.push_back(poll);
  }

  std::string frame = RenderTopFrame(history);
  EXPECT_NE(frame.find("campaign c1 zephyr/default"), std::string::npos);
  EXPECT_NE(frame.find("shards 4: 1 pending / 2 leased / 1 done"),
            std::string::npos);
  EXPECT_NE(frame.find("coverage 234"), std::string::npos);
  EXPECT_NE(frame.find("snapshot age 60ms (bound 100ms)"), std::string::npos);
  EXPECT_NE(frame.find("execs/s"), std::string::npos);
  EXPECT_NE(frame.find("PLATEAU"), std::string::npos);
  // Sparkline: two rate samples, the second 3x the first -> a low block then
  // the full block.
  EXPECT_NE(frame.find("▁"), std::string::npos);
  EXPECT_NE(frame.find("█"), std::string::npos);
  EXPECT_NE(frame.find("leased"), std::string::npos);  // shard table
  EXPECT_NE(frame.find("bug 9 exception/double free"), std::string::npos);
  EXPECT_NE(frame.find("rack0/w7"), std::string::npos);
  EXPECT_NE(frame.find(" LOST"), std::string::npos);
  EXPECT_NE(frame.find(" STALLED"), std::string::npos);
  // The live worker is neither lost nor stalled: its row carries no flag.
  size_t live_row = frame.find("rack0/w7");
  size_t live_row_end = frame.find('\n', live_row);
  EXPECT_EQ(frame.substr(live_row, live_row_end - live_row).find("LOST"),
            std::string::npos);

  // FINALIZED shows once the campaign closes.
  history.back().campaigns[0].finalized = 1;
  EXPECT_NE(RenderTopFrame(history).find("FINALIZED"), std::string::npos);
}

TEST(RenderFleetMetricsTest, EmitsCampaignWorkerAndOrchestratorFamilies) {
  StatusReplyMsg status = FullReply();
  telemetry::MetricsRegistry registry;
  registry.RegisterCounter("fleet.status_requests")->Add(5);
  std::string out = RenderFleetMetrics(status, registry.Snapshot());

  EXPECT_NE(out.find("# TYPE eof_fleet_campaign_coverage gauge\n"
                     "eof_fleet_campaign_coverage{campaign=\"c1\"} 234\n"),
            std::string::npos);
  EXPECT_NE(out.find("eof_fleet_campaign_execs_total{campaign=\"c1\"} 9001\n"),
            std::string::npos);
  EXPECT_NE(out.find("eof_fleet_campaign_bugs{campaign=\"c1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("eof_fleet_shards{campaign=\"c1\",phase=\"leased\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      out.find("eof_fleet_journal_dropped_total{campaign=\"c1\","
               "sink=\"orchestrator\"} 4\n"),
      std::string::npos);
  EXPECT_NE(out.find("eof_fleet_journal_dropped_total{campaign=\"c1\","
                     "sink=\"workers\"} 11\n"),
            std::string::npos);
  EXPECT_NE(
      out.find(
          "eof_fleet_worker_execs_total{worker=\"rack0/w7\",id=\"7\"} 4567\n"),
      std::string::npos);
  EXPECT_NE(out.find("eof_fleet_worker_last_seen_ms{worker=\"rack0/w7\","
                     "id=\"7\"} 123300\n"),
            std::string::npos);
  EXPECT_NE(out.find("eof_fleet_server_ms 123456\n"), std::string::npos);
  EXPECT_NE(out.find("eof_fleet_snapshot_age_ms 56\n"), std::string::npos);
  // The orchestrator's own registry rides along at the end.
  EXPECT_NE(out.find("eof_fleet_status_requests_total 5\n"), std::string::npos);
}

}  // namespace
}  // namespace fleet
}  // namespace eof
