#include "src/fleet/proto.h"

#include "src/common/byteio.h"
#include "src/common/strings.h"

namespace eof {
namespace fleet {
namespace {

void PutString(ByteWriter* writer, const std::string& text) {
  writer->PutLengthPrefixed(text);
}

std::string GetString(ByteReader* reader) {
  std::vector<uint8_t> bytes = reader->GetLengthPrefixed();
  return std::string(bytes.begin(), bytes.end());
}

void PutBlob(ByteWriter* writer, const std::vector<uint8_t>& blob) {
  writer->PutLengthPrefixed(blob);
}

void PutU64List(ByteWriter* writer, const std::vector<uint64_t>& values) {
  writer->PutU32(static_cast<uint32_t>(values.size()));
  for (uint64_t value : values) {
    writer->PutU64(value);
  }
}

std::vector<uint64_t> GetU64List(ByteReader* reader) {
  uint32_t count = reader->GetU32();
  std::vector<uint64_t> values;
  if (reader->failed() || static_cast<size_t>(count) * 8 > reader->remaining()) {
    return values;
  }
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    values.push_back(reader->GetU64());
  }
  return values;
}

void PutCorpus(ByteWriter* writer, const std::vector<CorpusEntryWire>& entries) {
  writer->PutU32(static_cast<uint32_t>(entries.size()));
  for (const CorpusEntryWire& entry : entries) {
    PutString(writer, entry.text);
    writer->PutU64(entry.new_edges);
  }
}

std::vector<CorpusEntryWire> GetCorpus(ByteReader* reader) {
  uint32_t count = reader->GetU32();
  std::vector<CorpusEntryWire> entries;
  for (uint32_t i = 0; i < count && !reader->failed(); ++i) {
    CorpusEntryWire entry;
    entry.text = GetString(reader);
    entry.new_edges = reader->GetU64();
    entries.push_back(std::move(entry));
  }
  return entries;
}

// Finishes a decode: every payload byte must have been consumed exactly.
template <typename T>
Result<T> Finish(const char* what, const ByteReader& reader, T msg) {
  if (reader.failed()) {
    return DataLossError(StrFormat("%s payload truncated", what));
  }
  if (reader.remaining() != 0) {
    return DataLossError(
        StrFormat("%s payload has %zu trailing bytes", what, reader.remaining()));
  }
  return msg;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  ByteWriter writer;
  writer.PutU32(kFrameMagic);
  writer.PutU16(kProtoVersion);
  writer.PutU16(static_cast<uint16_t>(frame.type));
  writer.PutU32(static_cast<uint32_t>(frame.payload.size()));
  writer.PutBytes(frame.payload.data(), frame.payload.size());
  return writer.TakeBytes();
}

Result<size_t> DecodeFrameHeader(const uint8_t header[kFrameHeaderBytes],
                                 MsgType* type) {
  ByteReader reader(header, kFrameHeaderBytes);
  uint32_t magic = reader.GetU32();
  if (magic != kFrameMagic) {
    return DataLossError(StrFormat("bad frame magic 0x%08x", magic));
  }
  uint16_t version = reader.GetU16();
  if (version != kProtoVersion) {
    return InvalidArgumentError(
        StrFormat("protocol version %u, expected %u", version, kProtoVersion));
  }
  uint16_t raw_type = reader.GetU16();
  if (raw_type < static_cast<uint16_t>(MsgType::kHello) ||
      raw_type > static_cast<uint16_t>(MsgType::kStatusReply)) {
    return DataLossError(StrFormat("unknown message type %u", raw_type));
  }
  uint32_t length = reader.GetU32();
  if (length > kMaxFramePayload) {
    return DataLossError(StrFormat("frame payload %u exceeds limit", length));
  }
  *type = static_cast<MsgType>(raw_type);
  return static_cast<size_t>(length);
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return DataLossError(StrFormat("frame truncated: %zu bytes", size));
  }
  Frame frame;
  ASSIGN_OR_RETURN(size_t payload_size, DecodeFrameHeader(data, &frame.type));
  if (size != kFrameHeaderBytes + payload_size) {
    return DataLossError(StrFormat("frame length mismatch: header says %zu, have %zu",
                                   payload_size, size - kFrameHeaderBytes));
  }
  frame.payload.assign(data + kFrameHeaderBytes, data + size);
  return frame;
}

std::vector<uint8_t> Encode(const HelloMsg& msg) {
  ByteWriter writer;
  PutString(&writer, msg.worker_name);
  writer.PutU32(msg.capacity);
  return writer.TakeBytes();
}

Result<HelloMsg> DecodeHello(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  HelloMsg msg;
  msg.worker_name = GetString(&reader);
  msg.capacity = reader.GetU32();
  return Finish("Hello", reader, std::move(msg));
}

std::vector<uint8_t> Encode(const HelloAckMsg& msg) {
  ByteWriter writer;
  writer.PutU32(msg.worker_id);
  writer.PutU64(msg.heartbeat_interval_ms);
  writer.PutU64(msg.lease_timeout_ms);
  return writer.TakeBytes();
}

Result<HelloAckMsg> DecodeHelloAck(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  HelloAckMsg msg;
  msg.worker_id = reader.GetU32();
  msg.heartbeat_interval_ms = reader.GetU64();
  msg.lease_timeout_ms = reader.GetU64();
  return Finish("HelloAck", reader, msg);
}

std::vector<uint8_t> Encode(const LeaseRequestMsg& msg) {
  ByteWriter writer;
  writer.PutU32(msg.worker_id);
  writer.PutU32(msg.capacity);
  return writer.TakeBytes();
}

Result<LeaseRequestMsg> DecodeLeaseRequest(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  LeaseRequestMsg msg;
  msg.worker_id = reader.GetU32();
  msg.capacity = reader.GetU32();
  return Finish("LeaseRequest", reader, msg);
}

namespace {

void PutConfig(ByteWriter* writer, const WireCampaignConfig& config) {
  PutString(writer, config.campaign_id);
  PutString(writer, config.os_name);
  PutString(writer, config.board_name);
  writer->PutU64(config.seed);
  writer->PutU64(config.budget_us);
  writer->PutU64(config.max_execs);
  writer->PutU64(config.metrics_interval_us);
  writer->PutU32(config.total_shards);
  writer->PutU32(config.sample_points);
  writer->PutU32(config.periodic_reset_execs);
  writer->PutU8(config.restore_mode);
  writer->PutU32(config.flags);
  writer->PutU32(static_cast<uint32_t>(config.seed_programs.size()));
  for (const std::string& program : config.seed_programs) {
    PutString(writer, program);
  }
}

WireCampaignConfig GetConfig(ByteReader* reader) {
  WireCampaignConfig config;
  config.campaign_id = GetString(reader);
  config.os_name = GetString(reader);
  config.board_name = GetString(reader);
  config.seed = reader->GetU64();
  config.budget_us = reader->GetU64();
  config.max_execs = reader->GetU64();
  config.metrics_interval_us = reader->GetU64();
  config.total_shards = reader->GetU32();
  config.sample_points = reader->GetU32();
  config.periodic_reset_execs = reader->GetU32();
  config.restore_mode = reader->GetU8();
  config.flags = reader->GetU32();
  uint32_t seed_count = reader->GetU32();
  for (uint32_t i = 0; i < seed_count && !reader->failed(); ++i) {
    config.seed_programs.push_back(GetString(reader));
  }
  return config;
}

}  // namespace

std::vector<uint8_t> Encode(const LeaseGrantMsg& msg) {
  ByteWriter writer;
  PutConfig(&writer, msg.config);
  writer.PutU32(static_cast<uint32_t>(msg.leases.size()));
  for (const ShardLease& lease : msg.leases) {
    writer.PutU64(lease.lease_id);
    writer.PutU32(lease.shard);
    writer.PutU32(lease.attempt);
  }
  PutBlob(&writer, msg.coverage);
  PutCorpus(&writer, msg.corpus);
  return writer.TakeBytes();
}

Result<LeaseGrantMsg> DecodeLeaseGrant(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  LeaseGrantMsg msg;
  msg.config = GetConfig(&reader);
  uint32_t lease_count = reader.GetU32();
  for (uint32_t i = 0; i < lease_count && !reader.failed(); ++i) {
    ShardLease lease;
    lease.lease_id = reader.GetU64();
    lease.shard = reader.GetU32();
    lease.attempt = reader.GetU32();
    msg.leases.push_back(lease);
  }
  msg.coverage = reader.GetLengthPrefixed();
  msg.corpus = GetCorpus(&reader);
  return Finish("LeaseGrant", reader, std::move(msg));
}

std::vector<uint8_t> Encode(const NoWorkMsg& msg) {
  ByteWriter writer;
  writer.PutU8(msg.campaign_done);
  writer.PutU64(msg.retry_ms);
  return writer.TakeBytes();
}

Result<NoWorkMsg> DecodeNoWork(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  NoWorkMsg msg;
  msg.campaign_done = reader.GetU8();
  msg.retry_ms = reader.GetU64();
  return Finish("NoWork", reader, msg);
}

namespace {

void PutBug(ByteWriter* writer, const BugWire& bug) {
  writer->PutU32(bug.catalog_id);
  PutString(writer, bug.detector);
  PutString(writer, bug.kind);
  PutString(writer, bug.excerpt);
  PutString(writer, bug.program_text);
  writer->PutU64(bug.at_us);
  writer->PutU64(bug.first_exec);
  writer->PutU32(bug.board);
  writer->PutU64(bug.seed_stream);
  writer->PutU64(bug.coverage_delta);
  PutString(writer, bug.snapshot_validation);
  PutString(writer, bug.dump_reason);
  PutString(writer, bug.dump_last_restore);
  PutString(writer, bug.uart_tail);
  PutString(writer, bug.port_ops);
  PutString(writer, bug.events);
}

BugWire GetBug(ByteReader* reader) {
  BugWire bug;
  bug.catalog_id = reader->GetU32();
  bug.detector = GetString(reader);
  bug.kind = GetString(reader);
  bug.excerpt = GetString(reader);
  bug.program_text = GetString(reader);
  bug.at_us = reader->GetU64();
  bug.first_exec = reader->GetU64();
  bug.board = reader->GetU32();
  bug.seed_stream = reader->GetU64();
  bug.coverage_delta = reader->GetU64();
  bug.snapshot_validation = GetString(reader);
  bug.dump_reason = GetString(reader);
  bug.dump_last_restore = GetString(reader);
  bug.uart_tail = GetString(reader);
  bug.port_ops = GetString(reader);
  bug.events = GetString(reader);
  return bug;
}

}  // namespace

std::vector<uint8_t> Encode(const SyncMsg& msg) {
  ByteWriter writer;
  writer.PutU32(msg.worker_id);
  PutString(&writer, msg.campaign_id);
  writer.PutU64(msg.seq);
  writer.PutU32(static_cast<uint32_t>(msg.shards.size()));
  for (const ShardProgressWire& shard : msg.shards) {
    writer.PutU64(shard.lease_id);
    writer.PutU32(shard.shard);
    writer.PutU64(shard.elapsed_us);
    writer.PutU64(shard.execs);
    writer.PutU8(shard.completed);
  }
  PutBlob(&writer, msg.coverage_delta);
  PutCorpus(&writer, msg.corpus);
  writer.PutU32(static_cast<uint32_t>(msg.bugs.size()));
  for (const BugWire& bug : msg.bugs) {
    PutBug(&writer, bug);
  }
  writer.PutU64(msg.journal_dropped);
  return writer.TakeBytes();
}

Result<SyncMsg> DecodeSync(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  SyncMsg msg;
  msg.worker_id = reader.GetU32();
  msg.campaign_id = GetString(&reader);
  msg.seq = reader.GetU64();
  uint32_t shard_count = reader.GetU32();
  for (uint32_t i = 0; i < shard_count && !reader.failed(); ++i) {
    ShardProgressWire shard;
    shard.lease_id = reader.GetU64();
    shard.shard = reader.GetU32();
    shard.elapsed_us = reader.GetU64();
    shard.execs = reader.GetU64();
    shard.completed = reader.GetU8();
    msg.shards.push_back(shard);
  }
  msg.coverage_delta = reader.GetLengthPrefixed();
  msg.corpus = GetCorpus(&reader);
  uint32_t bug_count = reader.GetU32();
  for (uint32_t i = 0; i < bug_count && !reader.failed(); ++i) {
    msg.bugs.push_back(GetBug(&reader));
  }
  msg.journal_dropped = reader.GetU64();
  return Finish("Sync", reader, std::move(msg));
}

std::vector<uint8_t> Encode(const SyncAckMsg& msg) {
  ByteWriter writer;
  writer.PutU8(msg.accepted);
  writer.PutU8(msg.campaign_done);
  PutBlob(&writer, msg.coverage_delta);
  PutCorpus(&writer, msg.corpus);
  PutU64List(&writer, msg.revoked);
  return writer.TakeBytes();
}

Result<SyncAckMsg> DecodeSyncAck(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  SyncAckMsg msg;
  msg.accepted = reader.GetU8();
  msg.campaign_done = reader.GetU8();
  msg.coverage_delta = reader.GetLengthPrefixed();
  msg.corpus = GetCorpus(&reader);
  msg.revoked = GetU64List(&reader);
  return Finish("SyncAck", reader, std::move(msg));
}

namespace {

// The metrics blob (WorkerFinal, StatusReply campaigns): counters, then gauges,
// each as a u32 count of (name, u64 value) entries in name order.
void PutMetrics(ByteWriter* writer, const telemetry::MetricsSnapshot& metrics) {
  ByteWriter blob;
  for (const auto* values : {&metrics.counters, &metrics.gauges}) {
    blob.PutU32(static_cast<uint32_t>(values->size()));
    for (const auto& [name, value] : *values) {
      PutString(&blob, name);
      blob.PutU64(value);
    }
  }
  PutBlob(writer, blob.bytes());
}

Status GetMetrics(ByteReader* reader, telemetry::MetricsSnapshot* metrics) {
  std::vector<uint8_t> blob = reader->GetLengthPrefixed();
  if (reader->failed()) {
    return DataLossError("metrics blob truncated");
  }
  ByteReader blob_reader(blob);
  for (auto* values : {&metrics->counters, &metrics->gauges}) {
    uint32_t count = blob_reader.GetU32();
    // An entry is at least a 4-byte name length and an 8-byte value.
    if (blob_reader.failed() || count > blob_reader.remaining() / 12) {
      return DataLossError("metrics count exceeds the blob");
    }
    for (uint32_t i = 0; i < count; ++i) {
      std::string name = GetString(&blob_reader);
      uint64_t value = blob_reader.GetU64();
      if (blob_reader.failed()) {
        return DataLossError("metrics blob truncated");
      }
      if (!values->emplace(name, value).second) {
        return DataLossError(
            StrFormat("metrics name '%s' repeats", name.c_str()));
      }
    }
  }
  if (blob_reader.remaining() != 0) {
    return DataLossError(StrFormat("metrics blob has %zu trailing bytes",
                                   blob_reader.remaining()));
  }
  return OkStatus();
}

}  // namespace

std::vector<uint8_t> Encode(const WorkerFinalMsg& msg) {
  ByteWriter writer;
  writer.PutU32(msg.worker_id);
  PutString(&writer, msg.campaign_id);
  writer.PutU64(msg.seq);
  writer.PutU64(msg.elapsed_us);
  writer.PutU64(msg.journal_dropped);
  PutMetrics(&writer, msg.metrics);
  writer.PutU32(static_cast<uint32_t>(msg.series.size()));
  for (const auto& [at, coverage] : msg.series) {
    writer.PutU64(at);
    writer.PutU64(coverage);
  }
  return writer.TakeBytes();
}

Result<WorkerFinalMsg> DecodeWorkerFinal(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WorkerFinalMsg msg;
  msg.worker_id = reader.GetU32();
  msg.campaign_id = GetString(&reader);
  msg.seq = reader.GetU64();
  msg.elapsed_us = reader.GetU64();
  msg.journal_dropped = reader.GetU64();
  RETURN_IF_ERROR(GetMetrics(&reader, &msg.metrics));
  uint32_t series_count = reader.GetU32();
  if (!reader.failed() &&
      static_cast<size_t>(series_count) * 16 <= reader.remaining()) {
    msg.series.reserve(series_count);
    for (uint32_t i = 0; i < series_count; ++i) {
      uint64_t at = reader.GetU64();
      uint64_t coverage = reader.GetU64();
      msg.series.emplace_back(at, coverage);
    }
  } else if (series_count > 0) {
    return DataLossError("WorkerFinal series truncated");
  }
  return Finish("WorkerFinal", reader, std::move(msg));
}

std::vector<uint8_t> Encode(const FinalAckMsg& msg) {
  ByteWriter writer;
  writer.PutU8(msg.accepted);
  return writer.TakeBytes();
}

Result<FinalAckMsg> DecodeFinalAck(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  FinalAckMsg msg;
  msg.accepted = reader.GetU8();
  return Finish("FinalAck", reader, msg);
}

std::vector<uint8_t> Encode(const GoodbyeMsg& msg) {
  ByteWriter writer;
  writer.PutU32(msg.worker_id);
  return writer.TakeBytes();
}

Result<GoodbyeMsg> DecodeGoodbye(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  GoodbyeMsg msg;
  msg.worker_id = reader.GetU32();
  return Finish("Goodbye", reader, msg);
}

std::vector<uint8_t> Encode(const StatusRequestMsg& msg) {
  ByteWriter writer;
  PutString(&writer, msg.campaign_id);
  writer.PutU8(msg.include_shards);
  return writer.TakeBytes();
}

Result<StatusRequestMsg> DecodeStatusRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  StatusRequestMsg msg;
  msg.campaign_id = GetString(&reader);
  msg.include_shards = reader.GetU8();
  return Finish("StatusRequest", reader, std::move(msg));
}

namespace {

void PutShardStatus(ByteWriter* writer, const ShardStatusWire& shard) {
  writer->PutU32(shard.shard);
  writer->PutU8(shard.phase);
  writer->PutU64(shard.lease_id);
  writer->PutU32(shard.worker);
  writer->PutU32(shard.attempt);
  writer->PutU64(shard.deadline_ms);
  writer->PutU64(shard.elapsed_us);
  writer->PutU64(shard.execs);
}

ShardStatusWire GetShardStatus(ByteReader* reader) {
  ShardStatusWire shard;
  shard.shard = reader->GetU32();
  shard.phase = reader->GetU8();
  shard.lease_id = reader->GetU64();
  shard.worker = reader->GetU32();
  shard.attempt = reader->GetU32();
  shard.deadline_ms = reader->GetU64();
  shard.elapsed_us = reader->GetU64();
  shard.execs = reader->GetU64();
  return shard;
}

void PutBugStatus(ByteWriter* writer, const BugStatusWire& bug) {
  writer->PutU32(bug.catalog_id);
  PutString(writer, bug.detector);
  PutString(writer, bug.kind);
  PutString(writer, bug.excerpt);
  writer->PutU64(bug.at_us);
  writer->PutU32(bug.board);
}

BugStatusWire GetBugStatus(ByteReader* reader) {
  BugStatusWire bug;
  bug.catalog_id = reader->GetU32();
  bug.detector = GetString(reader);
  bug.kind = GetString(reader);
  bug.excerpt = GetString(reader);
  bug.at_us = reader->GetU64();
  bug.board = reader->GetU32();
  return bug;
}

void PutCampaignStatus(ByteWriter* writer, const CampaignStatusWire& campaign) {
  PutString(writer, campaign.campaign_id);
  PutString(writer, campaign.os_name);
  PutString(writer, campaign.board_name);
  writer->PutU64(campaign.budget_us);
  writer->PutU32(campaign.shards_total);
  writer->PutU32(campaign.shards_pending);
  writer->PutU32(campaign.shards_leased);
  writer->PutU32(campaign.shards_done);
  PutMetrics(writer, campaign.metrics);
  writer->PutU64(campaign.journal_dropped);
  writer->PutU64(campaign.journal_dropped_workers);
  writer->PutU8(campaign.finalized);
  writer->PutU32(static_cast<uint32_t>(campaign.shards.size()));
  for (const ShardStatusWire& shard : campaign.shards) {
    PutShardStatus(writer, shard);
  }
  writer->PutU32(static_cast<uint32_t>(campaign.bugs.size()));
  for (const BugStatusWire& bug : campaign.bugs) {
    PutBugStatus(writer, bug);
  }
}

Result<CampaignStatusWire> GetCampaignStatus(ByteReader* reader) {
  CampaignStatusWire campaign;
  campaign.campaign_id = GetString(reader);
  campaign.os_name = GetString(reader);
  campaign.board_name = GetString(reader);
  campaign.budget_us = reader->GetU64();
  campaign.shards_total = reader->GetU32();
  campaign.shards_pending = reader->GetU32();
  campaign.shards_leased = reader->GetU32();
  campaign.shards_done = reader->GetU32();
  RETURN_IF_ERROR(GetMetrics(reader, &campaign.metrics));
  campaign.journal_dropped = reader->GetU64();
  campaign.journal_dropped_workers = reader->GetU64();
  campaign.finalized = reader->GetU8();
  uint32_t shard_count = reader->GetU32();
  if (!reader->failed() &&
      static_cast<size_t>(shard_count) * 41 <= reader->remaining()) {
    campaign.shards.reserve(shard_count);
  }
  for (uint32_t i = 0; i < shard_count && !reader->failed(); ++i) {
    campaign.shards.push_back(GetShardStatus(reader));
  }
  uint32_t bug_count = reader->GetU32();
  for (uint32_t i = 0; i < bug_count && !reader->failed(); ++i) {
    campaign.bugs.push_back(GetBugStatus(reader));
  }
  return campaign;
}

}  // namespace

std::vector<uint8_t> Encode(const StatusReplyMsg& msg) {
  ByteWriter writer;
  writer.PutU64(msg.server_ms);
  writer.PutU64(msg.assembled_ms);
  writer.PutU64(msg.heartbeat_interval_ms);
  writer.PutU32(static_cast<uint32_t>(msg.campaigns.size()));
  for (const CampaignStatusWire& campaign : msg.campaigns) {
    PutCampaignStatus(&writer, campaign);
  }
  writer.PutU32(static_cast<uint32_t>(msg.workers.size()));
  for (const WorkerStatusWire& worker : msg.workers) {
    writer.PutU32(worker.worker_id);
    PutString(&writer, worker.name);
    writer.PutU64(worker.last_seen_ms);
    writer.PutU8(worker.lost);
    writer.PutU64(worker.execs);
    writer.PutU64(worker.leases);
    writer.PutU64(worker.syncs);
    writer.PutU64(worker.journal_dropped);
  }
  return writer.TakeBytes();
}

Result<StatusReplyMsg> DecodeStatusReply(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  StatusReplyMsg msg;
  msg.server_ms = reader.GetU64();
  msg.assembled_ms = reader.GetU64();
  msg.heartbeat_interval_ms = reader.GetU64();
  uint32_t campaign_count = reader.GetU32();
  for (uint32_t i = 0; i < campaign_count && !reader.failed(); ++i) {
    ASSIGN_OR_RETURN(CampaignStatusWire campaign, GetCampaignStatus(&reader));
    msg.campaigns.push_back(std::move(campaign));
  }
  uint32_t worker_count = reader.GetU32();
  for (uint32_t i = 0; i < worker_count && !reader.failed(); ++i) {
    WorkerStatusWire worker;
    worker.worker_id = reader.GetU32();
    worker.name = GetString(&reader);
    worker.last_seen_ms = reader.GetU64();
    worker.lost = reader.GetU8();
    worker.execs = reader.GetU64();
    worker.leases = reader.GetU64();
    worker.syncs = reader.GetU64();
    worker.journal_dropped = reader.GetU64();
    msg.workers.push_back(std::move(worker));
  }
  return Finish("StatusReply", reader, std::move(msg));
}

}  // namespace fleet
}  // namespace eof
