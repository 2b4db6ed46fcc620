// Fleet wire protocol: versioned, length-prefixed frames between the campaign
// orchestrator (`eof serve`) and worker processes (`eof worker`).
//
// Framing: a 12-byte header — magic "EOFL", protocol version (u16), message type
// (u16), payload length (u32) — followed by the payload, all little-endian via
// the same ByteWriter/ByteReader primitives as the agent mailbox format. Both
// transports (in-process loopback and TCP) move identical encoded bytes, so the
// deterministic loopback tests exercise the exact codec the sockets do.
//
// Conversation shape: strictly worker-initiated request/response. A worker says
// Hello, then loops LeaseRequest -> (LeaseGrant | NoWork); while running a grant
// it heartbeats with Sync (lease renewal + coverage/corpus/bug deltas) and gets
// SyncAck (the orchestrator's news for this worker); a finished batch uploads
// WorkerFinal and the loop restarts. The orchestrator never pushes, so one
// socket never multiplexes.
//
// The campaign config travels by value in every LeaseGrant (workers are
// stateless between batches — that is what makes crash/rejoin trivial). Fields
// the CLI cannot set (generator/instrumentation tuning) are not carried and stay
// at their defaults on the worker.

#ifndef SRC_FLEET_PROTO_H_
#define SRC_FLEET_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/telemetry/metrics.h"

namespace eof {
namespace fleet {

inline constexpr uint32_t kFrameMagic = 0x4C464F45;  // "EOFL" little-endian
inline constexpr uint16_t kProtoVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 12;
// Upper bound on one payload: a full coverage snapshot plus a large corpus is
// well under this; anything bigger is a corrupt or hostile stream.
inline constexpr size_t kMaxFramePayload = 64u << 20;

enum class MsgType : uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kLeaseRequest = 3,
  kLeaseGrant = 4,
  kNoWork = 5,
  kSync = 6,
  kSyncAck = 7,
  kWorkerFinal = 8,
  kFinalAck = 9,
  kGoodbye = 10,
  // Observer role: read-only status polls. An observer connection never says
  // Hello and never holds leases; it sends StatusRequest and gets StatusReply.
  kStatusRequest = 11,
  kStatusReply = 12,
};

struct Frame {
  MsgType type = MsgType::kGoodbye;
  std::vector<uint8_t> payload;
};

// Header + payload as one buffer.
std::vector<uint8_t> EncodeFrame(const Frame& frame);
// Validates magic/version/type/length against a complete buffer.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);
// Validates a header alone and returns the payload size — stream transports read
// the header first, then exactly this many payload bytes.
Result<size_t> DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes],
                                 MsgType* type);

// --- Messages ---

struct HelloMsg {
  std::string worker_name;
  uint32_t capacity = 1;  // concurrent board sessions this worker runs
};

struct HelloAckMsg {
  uint32_t worker_id = 0;
  uint64_t heartbeat_interval_ms = 1000;  // Sync cadence the worker must keep
  uint64_t lease_timeout_ms = 5000;       // silence after which leases reclaim
};

struct LeaseRequestMsg {
  uint32_t worker_id = 0;
  uint32_t capacity = 1;
};

// The CLI-settable slice of FuzzerConfig, shipped with every grant.
struct WireCampaignConfig {
  std::string campaign_id;
  std::string os_name;
  std::string board_name;
  uint64_t seed = 1;
  uint64_t budget_us = 0;
  uint64_t max_execs = 0;
  uint64_t metrics_interval_us = 0;
  uint32_t total_shards = 1;  // campaign-wide shard count (for context/logs)
  uint32_t sample_points = 96;
  uint32_t periodic_reset_execs = 24;
  uint8_t restore_mode = 0;  // RestoreMode enum value
  // Flag bits, see kFlag* in proto.cc.
  uint32_t flags = 0;
  std::vector<std::string> seed_programs;
};

struct ShardLease {
  uint64_t lease_id = 0;
  uint32_t shard = 0;    // campaign-global shard index = board label + seed lane
  uint32_t attempt = 1;  // grant attempt (>1 after a reclaim)
};

struct CorpusEntryWire {
  std::string text;  // reproducer-text program
  uint64_t new_edges = 0;
};

struct LeaseGrantMsg {
  WireCampaignConfig config;
  std::vector<ShardLease> leases;
  // Orchestrator's merged campaign state at grant time: the rejoin resync.
  std::vector<uint8_t> coverage;        // full coverage snapshot blob
  std::vector<CorpusEntryWire> corpus;  // merged corpus (without seed programs)
};

struct NoWorkMsg {
  uint8_t campaign_done = 0;  // 1 = everything finished, worker should exit
  uint64_t retry_ms = 100;    // backoff before the next LeaseRequest
};

struct ShardProgressWire {
  uint64_t lease_id = 0;
  uint32_t shard = 0;
  uint64_t elapsed_us = 0;
  uint64_t execs = 0;
  uint8_t completed = 0;  // session ran its full budget
};

// Full BugReport provenance; flight-recorder rings travel as their text renders.
struct BugWire {
  uint32_t catalog_id = 0;
  std::string detector;
  std::string kind;
  std::string excerpt;
  std::string program_text;
  uint64_t at_us = 0;
  uint64_t first_exec = 0;
  uint32_t board = 0;
  uint64_t seed_stream = 0;
  uint64_t coverage_delta = 0;
  std::string snapshot_validation;
  std::string dump_reason;
  std::string dump_last_restore;
  std::string uart_tail;
  std::string port_ops;
  std::string events;
};

// Heartbeat + lease renewal + idempotent upload, all in one.
struct SyncMsg {
  uint32_t worker_id = 0;
  std::string campaign_id;
  uint64_t seq = 0;  // per-worker upload sequence (replays are detectable)
  std::vector<ShardProgressWire> shards;
  std::vector<uint8_t> coverage_delta;  // diff blob since the last Sync
  std::vector<CorpusEntryWire> corpus;  // newly admitted programs
  std::vector<BugWire> bugs;            // newly confirmed bugs
  uint64_t journal_dropped = 0;  // this worker's sink drop count so far
};

struct SyncAckMsg {
  uint8_t accepted = 1;       // 0 = unknown worker / stale batch, abort it
  uint8_t campaign_done = 0;  // campaign finished elsewhere, stop fuzzing it
  std::vector<uint8_t> coverage_delta;  // global news for this worker
  std::vector<CorpusEntryWire> corpus;  // programs from other workers
  std::vector<uint64_t> revoked;        // lease ids no longer held (reclaimed)
};

// End-of-batch results: only finals count toward the merged campaign's exec
// stats, so a crashed worker's partial numbers are never double-counted when its
// shards re-run elsewhere.
struct WorkerFinalMsg {
  uint32_t worker_id = 0;
  std::string campaign_id;
  uint64_t seq = 0;
  uint64_t elapsed_us = 0;
  uint64_t journal_dropped = 0;  // this worker's sink drop count so far
  // The batch's counters and gauges: its boards' registries merged with its
  // campaign registry. Histograms do not travel. The orchestrator merges these
  // snapshots and derives every CampaignResult scalar from the merge, so a new
  // counter needs no wire change.
  telemetry::MetricsSnapshot metrics;
  // Coverage series samples (t_us, coverage); adopted as the campaign series
  // when a single worker served every shard.
  std::vector<std::pair<uint64_t, uint64_t>> series;
};

struct FinalAckMsg {
  uint8_t accepted = 1;
};

struct GoodbyeMsg {
  uint32_t worker_id = 0;
};

// --- Observer role ---

// One status poll. An observer never says Hello: it connects, sends
// StatusRequest, reads StatusReply, says Goodbye (worker_id 0) and closes.
struct StatusRequestMsg {
  std::string campaign_id;    // empty = every registered campaign
  uint8_t include_shards = 1; // 0 = omit the per-shard lease table
};

// Per-shard lease-table row. `phase` mirrors ShardState::Phase.
struct ShardStatusWire {
  uint32_t shard = 0;
  uint8_t phase = 0;  // 0 pending, 1 leased, 2 done
  uint64_t lease_id = 0;
  uint32_t worker = 0;       // worker id holding the lease (leased phase)
  uint32_t attempt = 0;      // grant attempts so far
  uint64_t deadline_ms = 0;  // lease expiry on the orchestrator clock
  uint64_t elapsed_us = 0;   // last reported virtual progress
  uint64_t execs = 0;
};

// Per-worker row: identity, liveness, and accumulated sync-side counters.
struct WorkerStatusWire {
  uint32_t worker_id = 0;
  std::string name;
  uint64_t last_seen_ms = 0;  // orchestrator clock at the last frame
  uint8_t lost = 0;           // 1 = reaped after lease timeout
  uint64_t execs = 0;         // sum of live shard-progress execs
  uint64_t leases = 0;        // leases currently held
  uint64_t syncs = 0;         // Sync frames accepted
  uint64_t journal_dropped = 0;  // worker-side sink drops (from Sync)
};

struct BugStatusWire {
  uint32_t catalog_id = 0;
  std::string detector;
  std::string kind;
  std::string excerpt;
  uint64_t at_us = 0;
  uint32_t board = 0;
};

// Aggregated campaign view assembled under the orchestrator lock.
struct CampaignStatusWire {
  std::string campaign_id;
  std::string os_name;
  std::string board_name;
  uint64_t budget_us = 0;
  uint32_t shards_total = 0;
  uint32_t shards_pending = 0;
  uint32_t shards_leased = 0;
  uint32_t shards_done = 0;
  // The campaign's counters and gauges by name, in the WorkerFinal blob format:
  // its fleet.* lease/upload counters plus the live merged state —
  // fleet.campaign.{coverage, corpus, frontier_us} gauges (merged edges, merged
  // corpus, min elapsed over active shards) and fleet.campaign.{execs, crashes}
  // counters (live lease progress, accepted finals). /metrics renders them as
  // eof_fleet_* families, so a new counter needs no wire change.
  telemetry::MetricsSnapshot metrics;
  uint64_t journal_dropped = 0;          // orchestrator sink drops
  uint64_t journal_dropped_workers = 0;  // sum of worker-reported drops
  uint8_t finalized = 0;
  std::vector<ShardStatusWire> shards;  // empty when include_shards == 0
  std::vector<BugStatusWire> bugs;      // deduped bug table
};

struct StatusReplyMsg {
  uint64_t server_ms = 0;     // orchestrator clock at reply time
  uint64_t assembled_ms = 0;  // clock when this snapshot was assembled
  uint64_t heartbeat_interval_ms = 0;  // staleness bound for the snapshot
  std::vector<CampaignStatusWire> campaigns;
  std::vector<WorkerStatusWire> workers;
};

// Flag bit helpers for WireCampaignConfig::flags.
enum ConfigFlag : uint32_t {
  kFlagCoverageFeedback = 1u << 0,
  kFlagLogMonitor = 1u << 1,
  kFlagExceptionMonitor = 1u << 2,
  kFlagWatchdogs = 1u << 3,
  kFlagPowerProbe = 1u << 4,
  kFlagUseExtendedSpecs = 1u << 5,
  kFlagInjectPeripheralEvents = 1u << 6,
  // 1u << 7 was the legacy-link selector: retired, do not reuse (a mixed-version
  // fleet would read it with its old meaning).
  kFlagOverlappedDrain = 1u << 8,
  // 1u << 9 was the directed-scheduling switch: retired, do not reuse.
  kFlagTrim = 1u << 10,
};

// Per-message payload codecs. Decoders fail on truncated or trailing bytes; the
// metrics blob (WorkerFinal, StatusReply) also rejects counts past its end and
// duplicate names.
std::vector<uint8_t> Encode(const HelloMsg& msg);
std::vector<uint8_t> Encode(const HelloAckMsg& msg);
std::vector<uint8_t> Encode(const LeaseRequestMsg& msg);
std::vector<uint8_t> Encode(const LeaseGrantMsg& msg);
std::vector<uint8_t> Encode(const NoWorkMsg& msg);
std::vector<uint8_t> Encode(const SyncMsg& msg);
std::vector<uint8_t> Encode(const SyncAckMsg& msg);
std::vector<uint8_t> Encode(const WorkerFinalMsg& msg);
std::vector<uint8_t> Encode(const FinalAckMsg& msg);
std::vector<uint8_t> Encode(const GoodbyeMsg& msg);
std::vector<uint8_t> Encode(const StatusRequestMsg& msg);
std::vector<uint8_t> Encode(const StatusReplyMsg& msg);

Result<HelloMsg> DecodeHello(const std::vector<uint8_t>& payload);
Result<HelloAckMsg> DecodeHelloAck(const std::vector<uint8_t>& payload);
Result<LeaseRequestMsg> DecodeLeaseRequest(const std::vector<uint8_t>& payload);
Result<LeaseGrantMsg> DecodeLeaseGrant(const std::vector<uint8_t>& payload);
Result<NoWorkMsg> DecodeNoWork(const std::vector<uint8_t>& payload);
Result<SyncMsg> DecodeSync(const std::vector<uint8_t>& payload);
Result<SyncAckMsg> DecodeSyncAck(const std::vector<uint8_t>& payload);
Result<WorkerFinalMsg> DecodeWorkerFinal(const std::vector<uint8_t>& payload);
Result<FinalAckMsg> DecodeFinalAck(const std::vector<uint8_t>& payload);
Result<GoodbyeMsg> DecodeGoodbye(const std::vector<uint8_t>& payload);
Result<StatusRequestMsg> DecodeStatusRequest(const std::vector<uint8_t>& payload);
Result<StatusReplyMsg> DecodeStatusReply(const std::vector<uint8_t>& payload);

}  // namespace fleet
}  // namespace eof

#endif  // SRC_FLEET_PROTO_H_
