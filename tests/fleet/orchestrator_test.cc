// Orchestrator tests: lease state machine, weighted fair share, idempotent
// uploads, and crash/rejoin — a scripted worker that goes silent has its leases
// reclaimed on a fake clock and a real FleetWorker picks them up without
// losing shards or double-counting bugs.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coverage_serial.h"
#include "src/core/fuzzer.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/os/all_oses.h"
#include "src/telemetry/journal.h"

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

class OrchestratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  // Builds an orchestrator on a fake clock and a memory journal.
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

  // Raw-protocol helpers for scripting a worker by hand over loopback.
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

  uint64_t CountRows(const std::string& type) const {
    uint64_t count = 0;
    for (const telemetry::Event& event : sink_.Events()) {
      if (event.type == type) {
        ++count;
      }
    }
    return count;
  }

  telemetry::MemoryEventSink sink_;
  uint64_t now_ms_ = 1000;
};

TEST_F(OrchestratorTest, RejectsBadOptionsAndCampaigns) {
  Orchestrator::Options bad;
  bad.sink = &sink_;
  bad.lease_timeout_ms = 100;
  bad.heartbeat_interval_ms = 100;  // lease must exceed heartbeat
  EXPECT_FALSE(Orchestrator::Create(std::move(bad)).ok());

  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "";
  spec.config = TinyConfig();
  EXPECT_FALSE(orchestrator->AddCampaign(spec).ok());
  spec.campaign_id = "c";
  spec.shards = 0;
  EXPECT_FALSE(orchestrator->AddCampaign(spec).ok());
  spec.shards = 1;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());
  EXPECT_FALSE(orchestrator->AddCampaign(spec).ok());  // duplicate id
}

TEST_F(OrchestratorTest, GrantsLeasesUpToPoolAndTracksShards) {
  auto orchestrator = Make(/*pool=*/2);
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 3;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });

  uint32_t worker_id = SayHello(client.get(), "w0");
  ASSERT_GT(worker_id, 0u);
  auto grant = AskForWork(client.get(), worker_id, 4);
  ASSERT_TRUE(grant.ok());
  // Pool of 2 caps the grant below both capacity (4) and shard count (3).
  EXPECT_EQ(grant->leases.size(), 2u);
  EXPECT_EQ(grant->config.campaign_id, "c");
  EXPECT_EQ(grant->config.total_shards, 3u);
  std::set<uint32_t> shards;
  for (const ShardLease& lease : grant->leases) {
    EXPECT_EQ(lease.attempt, 1u);
    shards.insert(lease.shard);
  }
  EXPECT_EQ(shards.size(), 2u);

  // Nothing left in the pool: a second worker gets NoWork.
  auto denied = AskForWork(client.get(), worker_id, 4);
  EXPECT_FALSE(denied.ok());

  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{worker_id})});
  client->Close();
  handler.join();
  EXPECT_EQ(CountRows("lease_grant"), 2u);
  EXPECT_EQ(orchestrator->CompletedShards("c"), 0);
}

TEST_F(OrchestratorTest, WeightedFairShareFavorsHeavierCampaign) {
  auto orchestrator = Make();
  FleetCampaignSpec light;
  light.campaign_id = "light";
  light.config = TinyConfig();
  light.shards = 8;
  light.weight = 1;
  FleetCampaignSpec heavy = light;
  heavy.campaign_id = "heavy";
  heavy.weight = 3;
  ASSERT_TRUE(orchestrator->AddCampaign(light).ok());
  ASSERT_TRUE(orchestrator->AddCampaign(heavy).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  uint32_t worker_id = SayHello(client.get(), "w0");

  // One lease at a time: count where the first 8 go. Weight 3:1 means heavy
  // should take 6 of 8.
  int heavy_grants = 0;
  for (int i = 0; i < 8; ++i) {
    auto grant = AskForWork(client.get(), worker_id, 1);
    ASSERT_TRUE(grant.ok());
    ASSERT_EQ(grant->leases.size(), 1u);
    if (grant->config.campaign_id == "heavy") {
      ++heavy_grants;
    }
  }
  EXPECT_EQ(heavy_grants, 6);

  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{worker_id})});
  client->Close();
  handler.join();
}

TEST_F(OrchestratorTest, ReclaimsExpiredLeasesAndReassigns) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 1;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  // Worker A takes the shard, then goes silent (crash).
  auto [a_client, a_server] = LoopbackPair();
  std::thread a_handler([&] { orchestrator->ServeConnection(a_server.get()); });
  uint32_t a_id = SayHello(a_client.get(), "doomed");
  auto a_grant = AskForWork(a_client.get(), a_id, 1);
  ASSERT_TRUE(a_grant.ok());
  ASSERT_EQ(a_grant->leases.size(), 1u);
  uint64_t a_lease = a_grant->leases[0].lease_id;

  // Silence past the lease timeout on the fake clock: the lease reclaims.
  now_ms_ += 5000;
  orchestrator->ReapExpiredLeases();
  EXPECT_EQ(CountRows("lease_reclaim"), 1u);
  EXPECT_EQ(CountRows("worker_lost"), 1u);
  EXPECT_FALSE(orchestrator->AllCampaignsDone());

  // Worker B rejoins and gets the same shard, attempt 2, a fresh lease id.
  auto [b_client, b_server] = LoopbackPair();
  std::thread b_handler([&] { orchestrator->ServeConnection(b_server.get()); });
  uint32_t b_id = SayHello(b_client.get(), "rejoin");
  auto b_grant = AskForWork(b_client.get(), b_id, 1);
  ASSERT_TRUE(b_grant.ok());
  ASSERT_EQ(b_grant->leases.size(), 1u);
  EXPECT_EQ(b_grant->leases[0].shard, a_grant->leases[0].shard);
  EXPECT_EQ(b_grant->leases[0].attempt, 2u);
  EXPECT_NE(b_grant->leases[0].lease_id, a_lease);

  // A's late Sync on the dead lease is refused per-shard: the ack lists the
  // lease as revoked so A aborts its batch.
  SyncMsg stale;
  stale.worker_id = a_id;
  stale.campaign_id = "c";
  stale.seq = 1;
  stale.shards.push_back({a_lease, a_grant->leases[0].shard, 100, 5, 0});
  ASSERT_TRUE(a_client->Send({MsgType::kSync, Encode(stale)}).ok());
  auto stale_ack = a_client->Recv(2000);
  ASSERT_TRUE(stale_ack.ok());
  auto stale_decoded = DecodeSyncAck(stale_ack->payload);
  ASSERT_TRUE(stale_decoded.ok());
  EXPECT_EQ(stale_decoded->accepted, 1u);
  ASSERT_EQ(stale_decoded->revoked.size(), 1u);
  EXPECT_EQ(stale_decoded->revoked[0], a_lease);

  // B completes the shard; the same bug uploaded by both workers counts once.
  BugWire bug;
  bug.catalog_id = 3;
  bug.excerpt = "PANIC: double free";
  SyncMsg a_bug;
  a_bug.worker_id = a_id;
  a_bug.campaign_id = "c";
  a_bug.seq = 2;
  a_bug.bugs.push_back(bug);
  ASSERT_TRUE(a_client->Send({MsgType::kSync, Encode(a_bug)}).ok());
  ASSERT_TRUE(a_client->Recv(2000).ok());

  SyncMsg b_done;
  b_done.worker_id = b_id;
  b_done.campaign_id = "c";
  b_done.seq = 1;
  b_done.shards.push_back(
      {b_grant->leases[0].lease_id, b_grant->leases[0].shard, 30000000, 40, 1});
  b_done.bugs.push_back(bug);
  b_done.coverage_delta = SerializeCoverageIds({11, 22}, CoverageWireKind::kDiff);
  ASSERT_TRUE(b_client->Send({MsgType::kSync, Encode(b_done)}).ok());
  auto b_ack = b_client->Recv(2000);
  ASSERT_TRUE(b_ack.ok());

  EXPECT_TRUE(orchestrator->AllCampaignsDone());
  EXPECT_EQ(orchestrator->CompletedShards("c"), 1);

  a_client->Close();
  b_client->Close();
  a_handler.join();
  b_handler.join();

  auto results = orchestrator->Results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_granted"), 2u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_reclaimed"), 1u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.workers_lost"), 1u);
  EXPECT_EQ(results[0].bugs.size(), 1u);  // deduped across both uploads
  EXPECT_EQ(results[0].result.final_coverage, 2u);
}

TEST_F(OrchestratorTest, CumulativeDropCountsFromOneWorkerCountOnce) {
  // A worker's journal sink spans its lease batches, so each final reports the
  // sink's running drop count: finals of 3 then 5 drops mean 5, not 8.
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  uint32_t worker_id = SayHello(client.get(), "w0");
  uint64_t seq = 0;
  for (uint64_t dropped : {3u, 5u}) {
    WorkerFinalMsg final_msg;
    final_msg.worker_id = worker_id;
    final_msg.campaign_id = "c";
    final_msg.seq = ++seq;
    final_msg.journal_dropped = dropped;
    ASSERT_TRUE(client->Send({MsgType::kWorkerFinal, Encode(final_msg)}).ok());
    auto ack = client->Recv(2000);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->type, MsgType::kFinalAck);
  }
  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{worker_id})});
  client->Close();
  handler.join();

  auto results = orchestrator->Results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].result.journal_dropped, 5u);
}

TEST_F(OrchestratorTest, MergesFinalsFromTwoWorkers) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "c";
  spec.config = TinyConfig();
  spec.shards = 2;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  uint32_t a_id = SayHello(client.get(), "a");
  uint32_t b_id = SayHello(client.get(), "b");

  auto send_final = [&](uint32_t worker_id, uint64_t execs, uint64_t crashes,
                        uint64_t transactions, uint64_t trim_kept, uint64_t corpus) {
    WorkerFinalMsg final_msg;
    final_msg.worker_id = worker_id;
    final_msg.campaign_id = "c";
    final_msg.seq = 1;
    final_msg.metrics.counters = {{"campaign.execs", execs},
                                  {"campaign.crashes", crashes},
                                  {"campaign.trim_kept_calls", trim_kept},
                                  {"exec.restores", crashes + 1},
                                  {"link.transactions", transactions}};
    final_msg.metrics.gauges = {{"campaign.corpus", corpus}};
    ASSERT_TRUE(client->Send({MsgType::kWorkerFinal, Encode(final_msg)}).ok());
    auto ack = client->Recv(2000);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->type, MsgType::kFinalAck);
  };
  send_final(a_id, 100, 2, 50, 3, 7);
  send_final(b_id, 250, 1, 70, 5, 11);
  send_final(a_id, 100, 2, 50, 3, 7);  // a replayed final counts once

  StatusReplyMsg status = orchestrator->HandleStatus(StatusRequestMsg{});
  ASSERT_EQ(status.campaigns.size(), 1u);
  EXPECT_EQ(status.campaigns[0].metrics.CounterValue("fleet.campaign.crashes"), 3u);

  client->Send({MsgType::kGoodbye, Encode(GoodbyeMsg{a_id})});
  client->Close();
  handler.join();

  auto results = orchestrator->Results();
  ASSERT_EQ(results.size(), 1u);
  const CampaignResult& merged = results[0].result;
  EXPECT_EQ(merged.execs, 350u);
  EXPECT_EQ(merged.crashes, 3u);
  EXPECT_EQ(merged.restores, 5u);
  EXPECT_EQ(merged.link.transactions, 120u);
  EXPECT_EQ(merged.trim_kept_calls, 8u);
  // Gauges are levels: two workers' corpus gauges neither sum nor stand for the
  // campaign. A multi-worker result reports the merged store, empty here because
  // no worker synced a program (MetricsSnapshotTest pins max-merging itself).
  EXPECT_EQ(merged.corpus_size, 0u);
  EXPECT_EQ(results[0].workers_served, 2u);
  EXPECT_EQ(CountRows("worker_final"), 2u);
}

TEST_F(OrchestratorTest, EndToEndWithRealWorkerOverLoopback) {
  auto orchestrator = Make();
  FleetCampaignSpec spec;
  spec.campaign_id = "e2e";
  spec.config = TinyConfig();
  spec.shards = 2;
  ASSERT_TRUE(orchestrator->AddCampaign(spec).ok());

  auto [client, server] = LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });

  telemetry::MemoryEventSink worker_sink;
  FleetWorker::Options options;
  options.name = "w0";
  options.capacity = 2;
  options.sink = &worker_sink;
  auto worker = FleetWorker::Create(std::move(options));
  ASSERT_TRUE(worker.ok());
  Status ran = worker.value()->Run(client.get());
  EXPECT_TRUE(ran.ok()) << ran.ToString();
  handler.join();

  EXPECT_TRUE(orchestrator->AllCampaignsDone());
  EXPECT_EQ(orchestrator->CompletedShards("e2e"), 2);
  EXPECT_EQ(CountRows("campaign_end"), 0u);  // only Results() finalizes
  auto results = orchestrator->Results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_granted"), 2u);
  EXPECT_EQ(results[0].metrics.CounterValue("fleet.leases_reclaimed"), 0u);
  EXPECT_EQ(results[0].workers_served, 1u);
  EXPECT_GT(results[0].result.execs, 0u);
  EXPECT_GT(results[0].result.final_coverage, 0u);

  // Fleet journal rows: grants for both shards, completions, a worker final.
  EXPECT_EQ(CountRows("lease_grant"), 2u);
  EXPECT_EQ(CountRows("lease_complete"), 2u);
  EXPECT_EQ(CountRows("worker_final"), 1u);
  EXPECT_EQ(CountRows("campaign_end"), 1u);
  orchestrator->Results();  // idempotent: no second campaign_end
  EXPECT_EQ(CountRows("campaign_end"), 1u);
}

}  // namespace
}  // namespace fleet
}  // namespace eof
