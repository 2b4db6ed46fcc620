// Fleet wire protocol and transport tests: codec round-trips for every message,
// frame validation against corruption, a hostile-input harness for the
// WorkerFinal decoder, loopback queue semantics, and a TCP round-trip over a
// real localhost socket.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/byteio.h"
#include "src/common/rng.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "src/fuzz/byte_mutator.h"

namespace eof {
namespace fleet {
namespace {

TEST(ProtoTest, FrameRoundTrips) {
  Frame frame;
  frame.type = MsgType::kSync;
  frame.payload = {1, 2, 3, 0xff, 0};
  std::vector<uint8_t> wire = EncodeFrame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + frame.payload.size());

  auto decoded = DecodeFrame(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kSync);
  EXPECT_EQ(decoded->payload, frame.payload);

  MsgType type = MsgType::kGoodbye;
  auto payload_size = DecodeFrameHeader(wire.data(), &type);
  ASSERT_TRUE(payload_size.ok());
  EXPECT_EQ(payload_size.value(), frame.payload.size());
  EXPECT_EQ(type, MsgType::kSync);
}

TEST(ProtoTest, FrameRejectsCorruption) {
  Frame frame;
  frame.type = MsgType::kHello;
  frame.payload = Encode(HelloMsg{});
  std::vector<uint8_t> wire = EncodeFrame(frame);

  std::vector<uint8_t> bad_magic = wire;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrame(bad_magic.data(), bad_magic.size()).ok());

  std::vector<uint8_t> bad_version = wire;
  bad_version[4] = 0xee;
  EXPECT_FALSE(DecodeFrame(bad_version.data(), bad_version.size()).ok());

  std::vector<uint8_t> bad_type = wire;
  bad_type[6] = 0x7f;  // type 0x7f is outside [kHello, kGoodbye]
  EXPECT_FALSE(DecodeFrame(bad_type.data(), bad_type.size()).ok());

  EXPECT_FALSE(DecodeFrame(wire.data(), wire.size() - 1).ok());
  EXPECT_FALSE(DecodeFrame(wire.data(), kFrameHeaderBytes - 1).ok());
}

TEST(ProtoTest, HandshakeMessagesRoundTrip) {
  HelloMsg hello;
  hello.worker_name = "rig-7";
  hello.capacity = 8;
  auto hello2 = DecodeHello(Encode(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->worker_name, "rig-7");
  EXPECT_EQ(hello2->capacity, 8u);

  HelloAckMsg ack;
  ack.worker_id = 42;
  ack.heartbeat_interval_ms = 250;
  ack.lease_timeout_ms = 2000;
  auto ack2 = DecodeHelloAck(Encode(ack));
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->worker_id, 42u);
  EXPECT_EQ(ack2->heartbeat_interval_ms, 250u);
  EXPECT_EQ(ack2->lease_timeout_ms, 2000u);
}

TEST(ProtoTest, LeaseGrantRoundTrips) {
  LeaseGrantMsg grant;
  grant.config.campaign_id = "night-run";
  grant.config.os_name = "zephyr";
  grant.config.board_name = "frdm_k64f";
  grant.config.seed = 1234;
  grant.config.budget_us = 60'000'000;
  grant.config.total_shards = 8;
  grant.config.flags = kFlagCoverageFeedback | kFlagDirected;
  grant.config.seed_programs = {"r0 = k_yield()", "r1 = k_msgq_put(r0, `00`)"};
  grant.leases.push_back({77, 3, 2});
  grant.leases.push_back({78, 5, 1});
  grant.coverage = {0xaa, 0xbb};
  grant.corpus.push_back({"r0 = k_yield()", 4});
  grant.focus = {1, 9, 200};

  auto grant2 = DecodeLeaseGrant(Encode(grant));
  ASSERT_TRUE(grant2.ok());
  EXPECT_EQ(grant2->config.campaign_id, "night-run");
  EXPECT_EQ(grant2->config.seed, 1234u);
  EXPECT_EQ(grant2->config.flags, grant.config.flags);
  EXPECT_EQ(grant2->config.seed_programs, grant.config.seed_programs);
  ASSERT_EQ(grant2->leases.size(), 2u);
  EXPECT_EQ(grant2->leases[0].lease_id, 77u);
  EXPECT_EQ(grant2->leases[0].shard, 3u);
  EXPECT_EQ(grant2->leases[0].attempt, 2u);
  EXPECT_EQ(grant2->coverage, grant.coverage);
  ASSERT_EQ(grant2->corpus.size(), 1u);
  EXPECT_EQ(grant2->corpus[0].text, "r0 = k_yield()");
  EXPECT_EQ(grant2->corpus[0].new_edges, 4u);
  EXPECT_EQ(grant2->focus, grant.focus);
}

TEST(ProtoTest, SyncRoundTrips) {
  SyncMsg sync;
  sync.worker_id = 3;
  sync.campaign_id = "c";
  sync.seq = 17;
  sync.shards.push_back({9, 1, 500, 12, 1});
  sync.coverage_delta = {1, 2, 3};
  sync.corpus.push_back({"prog", 2});
  BugWire bug;
  bug.catalog_id = 6;
  bug.detector = "watchdog";
  bug.excerpt = "STALL";
  bug.program_text = "r0 = k_yield()";
  bug.uart_tail = "line1\nline2";
  sync.bugs.push_back(bug);
  sync.focus = {4, 5};

  auto sync2 = DecodeSync(Encode(sync));
  ASSERT_TRUE(sync2.ok());
  EXPECT_EQ(sync2->seq, 17u);
  ASSERT_EQ(sync2->shards.size(), 1u);
  EXPECT_EQ(sync2->shards[0].lease_id, 9u);
  EXPECT_EQ(sync2->shards[0].completed, 1u);
  ASSERT_EQ(sync2->bugs.size(), 1u);
  EXPECT_EQ(sync2->bugs[0].catalog_id, 6u);
  EXPECT_EQ(sync2->bugs[0].uart_tail, "line1\nline2");
  EXPECT_EQ(sync2->focus, sync.focus);
}

WorkerFinalMsg GoldenFinal() {
  WorkerFinalMsg final_msg;
  final_msg.worker_id = 2;
  final_msg.campaign_id = "c";
  final_msg.seq = 5;
  final_msg.elapsed_us = 60'000'000;
  final_msg.journal_dropped = 4;
  final_msg.metrics.counters = {{"campaign.crashes", 3},
                                {"campaign.execs", 5000},
                                {"link.bytes_read", 1 << 20},
                                {"link.warm_restores", 7}};
  final_msg.metrics.gauges = {{"campaign.coverage", 100}, {"campaign.frontier", 12}};
  final_msg.series = {{0, 0}, {1000, 50}, {2000, 100}};
  return final_msg;
}

void ExpectSameFinal(const WorkerFinalMsg& a, const WorkerFinalMsg& b) {
  EXPECT_EQ(a.worker_id, b.worker_id);
  EXPECT_EQ(a.campaign_id, b.campaign_id);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.journal_dropped, b.journal_dropped);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.metrics.gauges, b.metrics.gauges);
  EXPECT_EQ(a.series, b.series);
}

TEST(ProtoTest, WorkerFinalRoundTrips) {
  WorkerFinalMsg final_msg = GoldenFinal();
  // Histograms stay home: the blob carries counters and gauges only.
  final_msg.metrics.histograms["trace.exec_us"].count = 9;

  auto final2 = DecodeWorkerFinal(Encode(final_msg));
  ASSERT_TRUE(final2.ok()) << final2.status().ToString();
  ExpectSameFinal(final2.value(), final_msg);
  EXPECT_EQ(final2->metrics.CounterValue("link.warm_restores"), 7u);
  EXPECT_TRUE(final2->metrics.histograms.empty());
}

// A WorkerFinal payload around a hand-built metrics blob.
std::vector<uint8_t> FinalWithBlob(const std::vector<uint8_t>& blob) {
  ByteWriter writer;
  writer.PutU32(1);
  writer.PutLengthPrefixed(std::string("c"));
  writer.PutU64(1);
  writer.PutU64(0);
  writer.PutU64(0);
  writer.PutLengthPrefixed(blob);
  writer.PutU32(0);  // no series
  return writer.TakeBytes();
}

std::vector<uint8_t> Blob(const std::vector<std::pair<std::string, uint64_t>>& counters,
                          const std::vector<std::pair<std::string, uint64_t>>& gauges) {
  ByteWriter writer;
  for (const auto* values : {&counters, &gauges}) {
    writer.PutU32(static_cast<uint32_t>(values->size()));
    for (const auto& [name, value] : *values) {
      writer.PutLengthPrefixed(name);
      writer.PutU64(value);
    }
  }
  return writer.TakeBytes();
}

TEST(ProtoTest, WorkerFinalDecoderRejectsHostileInput) {
  const std::vector<uint8_t> golden = Encode(GoldenFinal());
  ASSERT_TRUE(DecodeWorkerFinal(golden).ok());
  for (size_t size = 0; size < golden.size(); ++size) {
    std::vector<uint8_t> prefix(golden.begin(), golden.begin() + size);
    EXPECT_FALSE(DecodeWorkerFinal(prefix).ok()) << "prefix of " << size << " bytes";
  }
  std::vector<uint8_t> trailing = golden;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeWorkerFinal(trailing).ok());

  // The same name may be a counter and a gauge, but never twice in one map.
  EXPECT_TRUE(DecodeWorkerFinal(FinalWithBlob(Blob({{"a", 1}}, {{"a", 2}}))).ok());
  EXPECT_FALSE(DecodeWorkerFinal(FinalWithBlob(Blob({{"a", 1}, {"a", 2}}, {}))).ok());
  EXPECT_FALSE(DecodeWorkerFinal(FinalWithBlob(Blob({}, {{"g", 1}, {"g", 1}}))).ok());

  std::vector<uint8_t> blob_trailing = Blob({{"a", 1}}, {});
  blob_trailing.push_back(0);
  EXPECT_FALSE(DecodeWorkerFinal(FinalWithBlob(blob_trailing)).ok());

  // Counts past the remaining bytes, in the blob and in the series.
  for (uint32_t count : {2u, 1000u, 0xffffffffu}) {
    ByteWriter writer;
    writer.PutU32(count);
    writer.PutLengthPrefixed(std::string("a"));
    writer.PutU64(1);
    writer.PutU32(0);
    EXPECT_FALSE(DecodeWorkerFinal(FinalWithBlob(writer.TakeBytes())).ok()) << count;
  }
  std::vector<uint8_t> long_series = FinalWithBlob(Blob({}, {}));
  long_series[long_series.size() - 4] = 0xff;
  EXPECT_FALSE(DecodeWorkerFinal(long_series).ok());

  // Oversized name length inside the blob, and a blob length past the payload.
  for (uint32_t name_length : {9u, 0x7fffffffu, 0xffffffffu}) {
    ByteWriter writer;
    writer.PutU32(1);
    writer.PutU32(name_length);
    writer.PutU64(1);
    writer.PutU32(0);
    EXPECT_FALSE(DecodeWorkerFinal(FinalWithBlob(writer.TakeBytes())).ok())
        << name_length;
  }
  std::vector<uint8_t> long_blob = FinalWithBlob(Blob({}, {}));
  long_blob[4 + 5 + 24] = 0xff;  // low byte of the blob's length prefix
  EXPECT_FALSE(DecodeWorkerFinal(long_blob).ok());
}

TEST(ProtoTest, WorkerFinalDecoderSurvivesMutatedInput) {
  // Decoder harness: havoc mutations of a golden encoding. Every input either
  // decodes or returns an error (sanitizer builds abort on anything else), and
  // whatever decodes re-encodes to a message that decodes identically.
  const std::vector<uint8_t> golden = Encode(GoldenFinal());
  fuzz::ByteMutator mutator(golden.size() * 2);
  Rng rng(20260514);
  size_t decoded = 0;
  for (int i = 0; i < 100000; ++i) {
    std::vector<uint8_t> input = mutator.Mutate(golden, rng);
    Result<WorkerFinalMsg> msg = DecodeWorkerFinal(input);
    if (!msg.ok()) {
      continue;
    }
    ++decoded;
    Result<WorkerFinalMsg> again = DecodeWorkerFinal(Encode(msg.value()));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameFinal(again.value(), msg.value());
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 100000u);
}

TEST(ProtoTest, DecodersRejectTruncationAndTrailingBytes) {
  std::vector<uint8_t> payload = Encode(HelloAckMsg{});
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeHelloAck(truncated).ok());

  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeHelloAck(trailing).ok());

  // A Sync payload is not a LeaseGrant payload.
  SyncMsg sync;
  sync.worker_id = 1;
  EXPECT_FALSE(DecodeLeaseGrant(Encode(sync)).ok());
}

TEST(TransportTest, LoopbackPairMovesFrames) {
  auto [a, b] = LoopbackPair();
  Frame frame;
  frame.type = MsgType::kHello;
  frame.payload = Encode(HelloMsg{"w", 1});
  ASSERT_TRUE(a->Send(frame).ok());

  auto got = b->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, MsgType::kHello);
  EXPECT_EQ(got->payload, frame.payload);

  // Nothing queued: times out.
  auto empty = b->Recv(10);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kTimeout);

  // Close unblocks and fails the peer.
  a->Close();
  auto closed = b->Recv(1000);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(b->Send(frame).ok());
}

TEST(TransportTest, LoopbackPreservesFrameOrder) {
  auto [a, b] = LoopbackPair();
  for (uint32_t i = 0; i < 10; ++i) {
    Frame frame;
    frame.type = MsgType::kSync;
    frame.payload = {static_cast<uint8_t>(i)};
    ASSERT_TRUE(a->Send(frame).ok());
  }
  for (uint32_t i = 0; i < 10; ++i) {
    auto got = b->Recv(1000);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->payload[0], static_cast<uint8_t>(i));
  }
}

TEST(TransportTest, LoopbackListenerAcceptsConnections) {
  LoopbackListener listener;
  auto timeout = listener.Accept(10);
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().code(), ErrorCode::kTimeout);

  std::unique_ptr<Transport> client = listener.Connect();
  auto server = listener.Accept(1000);
  ASSERT_TRUE(server.ok());

  Frame frame;
  frame.type = MsgType::kGoodbye;
  frame.payload = Encode(GoodbyeMsg{1});
  ASSERT_TRUE(client->Send(frame).ok());
  auto got = server.value()->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, MsgType::kGoodbye);

  listener.Close();
  auto after_close = listener.Accept(10);
  ASSERT_FALSE(after_close.ok());
  EXPECT_EQ(after_close.status().code(), ErrorCode::kUnavailable);
}

TEST(TransportTest, TcpRoundTrip) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, &port);
  if (!listener.ok()) {
    GTEST_SKIP() << "cannot bind localhost: " << listener.status().ToString();
  }
  ASSERT_GT(port, 0);

  auto client = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = listener.value()->Accept(2000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Big frame to exercise chunked socket reads.
  Frame frame;
  frame.type = MsgType::kSync;
  frame.payload.assign(1 << 20, 0x5a);
  ASSERT_TRUE(client.value()->Send(frame).ok());
  auto got = server.value()->Recv(5000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload.size(), frame.payload.size());
  EXPECT_EQ(got->payload, frame.payload);

  // And the reply direction.
  Frame reply;
  reply.type = MsgType::kSyncAck;
  reply.payload = Encode(SyncAckMsg{});
  ASSERT_TRUE(server.value()->Send(reply).ok());
  auto got_reply = client.value()->Recv(5000);
  ASSERT_TRUE(got_reply.ok());
  EXPECT_EQ(got_reply->type, MsgType::kSyncAck);

  // Peer close surfaces as Unavailable between frames.
  client.value()->Close();
  auto closed = server.value()->Recv(5000);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace fleet
}  // namespace eof
