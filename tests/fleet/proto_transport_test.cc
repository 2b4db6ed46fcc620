// Fleet wire protocol and transport tests: codec round-trips, the pinned wire
// bytes of every message, a havoc harness over every decoder, frame validation
// against corruption, a hostile-input table for the WorkerFinal decoder,
// loopback queue semantics, and a TCP round-trip over a real localhost socket.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/byteio.h"
#include "src/common/strings.h"
#include "src/fleet/proto.h"
#include "src/fleet/transport.h"
#include "tests/fleet/decoder_harness.h"

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
  bad_type[6] = 0x7f;  // type 0x7f is outside [kHello, kStatusReply]
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

// Every carried FuzzerConfig field away from its default, so a field the list drops
// or misorders shows in the round trip.
LeaseGrantMsg GoldenGrant() {
  LeaseGrantMsg grant;
  grant.campaign_id = "night-run";
  FuzzerConfig& config = grant.config;
  config.os_name = "zephyr";
  config.board_name = "frdm_k64f";
  config.seed = 1234;
  config.budget = 60'000'000;
  config.max_execs = 5000;
  config.metrics_interval = 1'000'000;
  config.sample_points = 48;
  config.periodic_reset_execs = 12;
  config.restore_mode = RestoreMode::kSnapshot;
  config.coverage_feedback = false;
  config.log_monitor = false;
  config.exception_monitor = false;
  config.watchdogs = false;
  config.power_probe = true;
  config.use_extended_specs = false;
  config.inject_peripheral_events = true;
  config.overlapped_drain = false;
  config.trim = true;
  config.seed_programs = {"r0 = k_yield()", "r1 = k_msgq_put(r0, `00`)"};
  grant.leases.push_back({77, 3, 2});
  grant.leases.push_back({78, 5, 1});
  grant.coverage = {0xaa, 0xbb};
  grant.corpus.push_back({"r0 = k_yield()", 4});
  return grant;
}

TEST(ProtoTest, LeaseGrantRoundTrips) {
  LeaseGrantMsg grant = GoldenGrant();
  // Fields the grant does not carry: set here, default on the far side.
  grant.config.gen.max_calls = 3;
  grant.config.gen.max_buffer_len = 48;
  grant.config.gen.use_extended = false;
  grant.config.gen.allowed_subsystems = {"http"};
  grant.config.gen.wild_scalar_per_mille = 0;
  grant.config.instrumentation.enabled = false;
  grant.config.instrumentation.module_filter = {"apps/"};
  grant.config.instrumentation.semihost = true;
  grant.config.metrics_out = "journal.jsonl";
  grant.config.export_corpus = true;

  auto grant2 = DecodeLeaseGrant(Encode(grant));
  ASSERT_TRUE(grant2.ok()) << grant2.status().ToString();
  EXPECT_EQ(grant2->campaign_id, "night-run");
  const FuzzerConfig& sent = grant.config;
  const FuzzerConfig& got = grant2->config;
  EXPECT_EQ(got.os_name, sent.os_name);
  EXPECT_EQ(got.board_name, sent.board_name);
  EXPECT_EQ(got.seed, sent.seed);
  EXPECT_EQ(got.budget, sent.budget);
  EXPECT_EQ(got.max_execs, sent.max_execs);
  EXPECT_EQ(got.metrics_interval, sent.metrics_interval);
  EXPECT_EQ(got.sample_points, sent.sample_points);
  EXPECT_EQ(got.periodic_reset_execs, sent.periodic_reset_execs);
  EXPECT_EQ(got.restore_mode, sent.restore_mode);
  EXPECT_EQ(got.coverage_feedback, sent.coverage_feedback);
  EXPECT_EQ(got.log_monitor, sent.log_monitor);
  EXPECT_EQ(got.exception_monitor, sent.exception_monitor);
  EXPECT_EQ(got.watchdogs, sent.watchdogs);
  EXPECT_EQ(got.power_probe, sent.power_probe);
  EXPECT_EQ(got.use_extended_specs, sent.use_extended_specs);
  EXPECT_EQ(got.inject_peripheral_events, sent.inject_peripheral_events);
  EXPECT_EQ(got.overlapped_drain, sent.overlapped_drain);
  EXPECT_EQ(got.trim, sent.trim);
  EXPECT_EQ(got.seed_programs, sent.seed_programs);

  const FuzzerConfig defaults;
  EXPECT_EQ(got.gen.max_calls, defaults.gen.max_calls);
  EXPECT_EQ(got.gen.max_buffer_len, defaults.gen.max_buffer_len);
  EXPECT_EQ(got.gen.use_extended, defaults.gen.use_extended);
  EXPECT_EQ(got.gen.allowed_subsystems, defaults.gen.allowed_subsystems);
  EXPECT_EQ(got.gen.wild_scalar_per_mille, defaults.gen.wild_scalar_per_mille);
  EXPECT_EQ(got.instrumentation.enabled, defaults.instrumentation.enabled);
  EXPECT_EQ(got.instrumentation.module_filter, defaults.instrumentation.module_filter);
  EXPECT_EQ(got.instrumentation.semihost, defaults.instrumentation.semihost);
  EXPECT_EQ(got.metrics_out, defaults.metrics_out);
  EXPECT_EQ(got.export_corpus, defaults.export_corpus);

  ASSERT_EQ(grant2->leases.size(), 2u);
  EXPECT_EQ(grant2->leases[0].lease_id, 77u);
  EXPECT_EQ(grant2->leases[0].shard, 3u);
  EXPECT_EQ(grant2->leases[0].attempt, 2u);
  EXPECT_EQ(grant2->coverage, grant.coverage);
  ASSERT_EQ(grant2->corpus.size(), 1u);
  EXPECT_EQ(grant2->corpus[0].text, "r0 = k_yield()");
  EXPECT_EQ(grant2->corpus[0].new_edges, 4u);
}

SyncMsg GoldenSync() {
  SyncMsg sync;
  sync.worker_id = 3;
  sync.campaign_id = "c";
  sync.seq = 17;
  sync.shards.push_back({9, 1, 500, 12, 1});
  sync.coverage_delta = {1, 2, 3};
  sync.corpus.push_back({"prog", 2});
  telemetry::BugReport bug;
  bug.catalog_id = 6;
  bug.detector = "watchdog";
  bug.kind = "stall";
  bug.operation = "rt_list_isempty()";
  bug.excerpt = "STALL";
  bug.program_text = "r0 = k_yield()";
  bug.at = 1500;
  bug.first_exec = 40;
  bug.board = 2;
  bug.seed_stream = 11;
  bug.coverage_delta = 5;
  bug.snapshot_validation = "validated";
  bug.dump_reason = "watchdog";
  bug.last_restore = "reflash";
  bug.uart_tail = "line1\nline2";
  bug.port_ops = "read 0x20000000";
  bug.events = "irq 3";
  sync.bugs.push_back(bug);
  sync.journal_dropped = 2;
  return sync;
}

TEST(ProtoTest, SyncRoundTrips) {
  auto sync2 = DecodeSync(Encode(GoldenSync()));
  ASSERT_TRUE(sync2.ok());
  EXPECT_EQ(sync2->seq, 17u);
  ASSERT_EQ(sync2->shards.size(), 1u);
  EXPECT_EQ(sync2->shards[0].lease_id, 9u);
  EXPECT_EQ(sync2->shards[0].completed, 1u);
  ASSERT_EQ(sync2->bugs.size(), 1u);
  EXPECT_TRUE(sync2->bugs[0] == GoldenSync().bugs[0]);
  EXPECT_EQ(sync2->journal_dropped, 2u);
}

SyncAckMsg GoldenSyncAck() {
  SyncAckMsg ack;
  ack.campaign_done = 1;
  ack.coverage_delta = {4, 5, 6, 7};
  ack.corpus.push_back({"r0 = k_yield()", 3});
  ack.corpus.push_back({"r0 = k_sem_give(0x1)", 1});
  ack.revoked = {41, 42};
  ack.bugs = GoldenSync().bugs;
  return ack;
}

TEST(ProtoTest, SyncAckRoundTrips) {
  SyncAckMsg ack = GoldenSyncAck();
  auto ack2 = DecodeSyncAck(Encode(ack));
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2->accepted, 1u);
  EXPECT_EQ(ack2->campaign_done, 1u);
  EXPECT_EQ(ack2->coverage_delta, ack.coverage_delta);
  ASSERT_EQ(ack2->corpus.size(), 2u);
  EXPECT_EQ(ack2->corpus[1].text, "r0 = k_sem_give(0x1)");
  EXPECT_EQ(ack2->revoked, ack.revoked);
  ASSERT_EQ(ack2->bugs.size(), 1u);
  EXPECT_TRUE(ack2->bugs[0] == ack.bugs[0]);
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

StatusReplyMsg GoldenStatusReply() {
  StatusReplyMsg reply;
  reply.server_ms = 123456;
  reply.assembled_ms = 123400;
  reply.heartbeat_interval_ms = 250;
  CampaignStatusWire campaign;
  campaign.campaign_id = "c1";
  campaign.os_name = "zephyr";
  campaign.board_name = "frdm_k64f";
  campaign.budget_us = 30'000'000;
  campaign.shards_total = 4;
  campaign.shards_pending = 1;
  campaign.shards_leased = 2;
  campaign.shards_done = 1;
  campaign.metrics.counters = {{"fleet.campaign.execs", 9001}, {"fleet.leases_granted", 5}};
  campaign.metrics.gauges = {{"fleet.campaign.coverage", 234}};
  campaign.journal_dropped = 4;
  campaign.journal_dropped_workers = 11;
  campaign.finalized = 1;
  campaign.shards.push_back({2, ShardPhase::kLeased, 42, 7, 3, 124000, 2'500'000, 321});
  campaign.bugs.push_back({9, "exception", "double free", "PANIC: double\nfree", 777, 1});
  reply.campaigns.push_back(campaign);
  reply.workers.push_back({7, "rack0/w7", 123300, 1, 4567, 2, 31, 6});
  return reply;
}

// One fully populated instance of every message (each field non-default, each
// vector non-empty, each u8 flag non-zero), its decoder, and its wire bytes as
// pinned at protocol version 7 (only LeaseGrant's bytes moved from version 6: it
// carries FuzzerConfig's own field list).
struct CodecCase {
  const char* name;
  std::vector<uint8_t> golden;
  RoundTripFn round_trip;
  const char* hex;
};

std::vector<CodecCase> CodecCases() {
  return {
      {"Hello", Encode(HelloMsg{"rig-7", 8}), DecodeThenEncode(&DecodeHello),
       "050000007269672d3708000000"},
      {"HelloAck", Encode(HelloAckMsg{42, 250, 2000}), DecodeThenEncode(&DecodeHelloAck),
       "2a000000fa00000000000000d007000000000000"},
      {"LeaseRequest", Encode(LeaseRequestMsg{42, 4}), DecodeThenEncode(&DecodeLeaseRequest),
       "2a00000004000000"},
      {"LeaseGrant", Encode(GoldenGrant()), DecodeThenEncode(&DecodeLeaseGrant),
       "090000006e696768742d72756e060000007a6570687972090000006672646d5f6b363466d2040000"
       "000000000087930300000000881300000000000040420f0000000000300000000c00000002000000"
       "000100010001020000000e0000007230203d206b5f7969656c642829190000007231203d206b5f6d"
       "7367715f7075742872302c206030306029020000004d0000000000000003000000020000004e0000"
       "0000000000050000000100000002000000aabb010000000e0000007230203d206b5f7969656c6428"
       "290400000000000000"},
      {"NoWork", Encode(NoWorkMsg{1, 250}), DecodeThenEncode(&DecodeNoWork),
       "01fa00000000000000"},
      {"Sync", Encode(GoldenSync()), DecodeThenEncode(&DecodeSync),
       "030000000100000063110000000000000001000000090000000000000001000000f4010000000000"
       "000c000000000000000103000000010203010000000400000070726f670200000000000000010000"
       "00dc0500000000000006000000080000007761746368646f67050000007374616c6c110000007274"
       "5f6c6973745f6973656d70747928292800000000000000020000000b000000000000000500000000"
       "0000000900000076616c696461746564070000007265666c617368050000005354414c4c0e000000"
       "7230203d206b5f7969656c642829080000007761746368646f670b0000006c696e65310a6c696e65"
       "320f0000007265616420307832303030303030300500000069727120330200000000000000"},
      {"SyncAck", Encode(GoldenSyncAck()), DecodeThenEncode(&DecodeSyncAck),
       "01010400000004050607020000000e0000007230203d206b5f7969656c6428290300000000000000"
       "140000007230203d206b5f73656d5f67697665283078312901000000000000000200000029000000"
       "000000002a0000000000000001000000dc0500000000000006000000080000007761746368646f67"
       "050000007374616c6c1100000072745f6c6973745f6973656d707479282928000000000000000200"
       "00000b0000000000000005000000000000000900000076616c696461746564070000007265666c61"
       "7368050000005354414c4c0e0000007230203d206b5f7969656c642829080000007761746368646f"
       "670b0000006c696e65310a6c696e65320f0000007265616420307832303030303030300500000069"
       "72712033"},
      {"WorkerFinal", Encode(GoldenFinal()), DecodeThenEncode(&DecodeWorkerFinal),
       "020000000100000063050000000000000000879303000000000400000000000000b1000000040000"
       "001000000063616d706169676e2e6372617368657303000000000000000e00000063616d70616967"
       "6e2e657865637388130000000000000f0000006c696e6b2e62797465735f72656164000010000000"
       "0000120000006c696e6b2e7761726d5f726573746f72657307000000000000000200000011000000"
       "63616d706169676e2e636f76657261676564000000000000001100000063616d706169676e2e6672"
       "6f6e746965720c000000000000000300000000000000000000000000000000000000e80300000000"
       "00003200000000000000d0070000000000006400000000000000"},
      {"FinalAck", Encode(FinalAckMsg{1}), DecodeThenEncode(&DecodeFinalAck),
       "01"},
      {"Goodbye", Encode(GoodbyeMsg{7}), DecodeThenEncode(&DecodeGoodbye),
       "07000000"},
      {"StatusRequest", Encode(StatusRequestMsg{"night-run", 1}),
       DecodeThenEncode(&DecodeStatusRequest),
       "090000006e696768742d72756e01"},
      {"StatusReply", Encode(GoldenStatusReply()), DecodeThenEncode(&DecodeStatusReply),
       "40e201000000000008e2010000000000fa0000000000000001000000020000006331060000007a65"
       "70687972090000006672646d5f6b36346680c3c90100000000040000000100000002000000010000"
       "006b0000000200000014000000666c6565742e63616d706169676e2e657865637329230000000000"
       "0014000000666c6565742e6c65617365735f6772616e746564050000000000000001000000170000"
       "00666c6565742e63616d706169676e2e636f766572616765ea000000000000000400000000000000"
       "0b00000000000000010100000002000000012a00000000000000070000000300000060e401000000"
       "0000a0252600000000004101000000000000010000000900000009000000657863657074696f6e0b"
       "000000646f75626c6520667265651200000050414e49433a20646f75626c650a6672656509030000"
       "00000000010000000100000007000000080000007261636b302f7737a4e101000000000001d71100"
       "000000000002000000000000001f000000000000000600000000000000"},
  };
}

TEST(ProtoTest, GoldenEncodings) {
  for (const CodecCase& kase : CodecCases()) {
    EXPECT_EQ(BytesToHex(kase.golden.data(), kase.golden.size()), kase.hex) << kase.name;
  }
}

// Every decoder survives havoc seeded from its message's golden encoding.
class DecoderHavocTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DecoderHavocTest, SurvivesMutatedInput) {
  const CodecCase kase = CodecCases()[GetParam()];
  ExpectDecoderSurvivesHavoc(kase.golden, kase.round_trip, 20261100 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMessages, DecoderHavocTest,
                         ::testing::Range<size_t>(0, CodecCases().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(CodecCases()[info.param].name);
                         });

TEST(ProtoTest, DecodersRejectTruncationAndTrailingBytes) {
  std::vector<uint8_t> payload = Encode(HelloAckMsg{});
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeHelloAck(truncated).ok());

  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeHelloAck(trailing).ok());

  // A bug's int fields reject a u32 past INT_MAX.
  SyncMsg negative = GoldenSync();
  negative.bugs[0].catalog_id = -1;
  EXPECT_FALSE(DecodeSync(Encode(negative)).ok());

  // A Sync payload is not a LeaseGrant payload.
  SyncMsg sync;
  sync.worker_id = 1;
  EXPECT_FALSE(DecodeLeaseGrant(Encode(sync)).ok());
}

// The index of the one byte where two same-length encodings differ.
size_t OnlyDifference(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::vector<size_t> differ;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) {
      differ.push_back(i);
    }
  }
  EXPECT_EQ(differ.size(), 1u);
  return differ.empty() ? 0 : differ[0];
}

// A byte past its field's range is DataLoss, not a value cast into being: a
// restore mode past kSnapshot, a bool past 1, a shard phase past kDone.
TEST(ProtoTest, DecodersRejectOutOfRangeEnumsAndBools) {
  LeaseGrantMsg grant = GoldenGrant();
  const std::vector<uint8_t> golden = Encode(grant);
  grant.config.restore_mode = RestoreMode::kReflash;
  const size_t mode = OnlyDifference(golden, Encode(grant));
  grant = GoldenGrant();
  grant.config.trim = false;
  const size_t trim = OnlyDifference(golden, Encode(grant));
  ASSERT_EQ(golden[mode], 2);
  ASSERT_EQ(golden[trim], 1);

  std::vector<uint8_t> bad = golden;
  bad[mode] = 3;
  Result<LeaseGrantMsg> decoded = DecodeLeaseGrant(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
  bad = golden;
  bad[trim] = 2;
  decoded = DecodeLeaseGrant(bad);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);

  StatusReplyMsg reply = GoldenStatusReply();
  const std::vector<uint8_t> status = Encode(reply);
  reply.campaigns[0].shards[0].phase = ShardPhase::kDone;
  const size_t phase = OnlyDifference(status, Encode(reply));
  ASSERT_EQ(status[phase], 1);
  bad = status;
  bad[phase] = 2;
  EXPECT_TRUE(DecodeStatusReply(bad).ok());
  bad[phase] = 3;
  Result<StatusReplyMsg> reply2 = DecodeStatusReply(bad);
  ASSERT_FALSE(reply2.ok());
  EXPECT_EQ(reply2.status().code(), ErrorCode::kDataLoss);
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
