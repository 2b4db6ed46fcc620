#include "src/fleet/proto.h"

#include <climits>

#include "src/common/byteio.h"
#include "src/common/strings.h"

namespace eof {
namespace fleet {
namespace {

// --- Field lists, in wire order ---
//
// Each message and each struct nested in one lists its fields once. A Writer
// visits the list to encode and a Reader visits it to decode, so the two
// directions cannot drift. A vector travels as a u32 count and then its items.
// The grant's FuzzerConfig travels through the engine's own list (fuzzer.h).
// A bug travels through the journal's own bug_report list (telemetry::Fields),
// whose field names the wire drops, with the row's `at` ahead of it.

template <class IO>
void Fields(IO& io, HelloMsg& m) { io(m.worker_name, m.capacity); }

template <class IO>
void Fields(IO& io, HelloAckMsg& m) {
  io(m.worker_id, m.heartbeat_interval_ms, m.lease_timeout_ms);
}

template <class IO>
void Fields(IO& io, LeaseRequestMsg& m) { io(m.worker_id, m.capacity); }

template <class IO>
void Fields(IO& io, ShardLease& m) { io(m.lease_id, m.shard, m.attempt); }

template <class IO>
void Fields(IO& io, fuzz::CorpusRecord& m) { io(m.text, m.new_edges); }

template <class IO>
void Fields(IO& io, LeaseGrantMsg& m) {
  io(m.campaign_id, m.config, m.leases, m.coverage, m.corpus);
}

template <class IO>
void Fields(IO& io, NoWorkMsg& m) { io(m.campaign_done, m.retry_ms); }

template <class IO>
void Fields(IO& io, ShardProgressWire& m) {
  io(m.lease_id, m.shard, m.elapsed_us, m.execs, m.completed);
}

template <class IO>
void Fields(IO& io, SyncMsg& m) {
  io(m.worker_id, m.campaign_id, m.seq, m.shards, m.coverage_delta, m.corpus, m.bugs,
     m.journal_dropped);
}

template <class IO>
void Fields(IO& io, SyncAckMsg& m) {
  io(m.accepted, m.campaign_done, m.coverage_delta, m.corpus, m.revoked, m.bugs);
}

template <class IO>
void Fields(IO& io, WorkerFinalMsg& m) {
  io(m.worker_id, m.campaign_id, m.seq, m.elapsed_us, m.journal_dropped, m.metrics,
     m.series);
}

template <class IO>
void Fields(IO& io, FinalAckMsg& m) { io(m.accepted); }

template <class IO>
void Fields(IO& io, GoodbyeMsg& m) { io(m.worker_id); }

template <class IO>
void Fields(IO& io, StatusRequestMsg& m) { io(m.campaign_id, m.include_shards); }

template <class IO>
void Fields(IO& io, ShardState& m) {
  io(m.shard, m.phase, m.lease_id, m.worker, m.attempt, m.deadline_ms, m.elapsed_us,
     m.execs);
}

template <class IO>
void Fields(IO& io, BugStatusWire& m) {
  io(m.catalog_id, m.detector, m.kind, m.excerpt, m.at_us, m.board);
}

template <class IO>
void Fields(IO& io, CampaignStatusWire& m) {
  io(m.campaign_id, m.os_name, m.board_name, m.budget_us, m.shards_total, m.shards_pending,
     m.shards_leased, m.shards_done, m.metrics, m.journal_dropped, m.journal_dropped_workers,
     m.finalized, m.shards, m.bugs);
}

template <class IO>
void Fields(IO& io, WorkerStatusWire& m) {
  io(m.worker_id, m.name, m.last_seen_ms, m.lost, m.execs, m.leases, m.syncs,
     m.journal_dropped);
}

template <class IO>
void Fields(IO& io, StatusReplyMsg& m) {
  io(m.server_ms, m.assembled_ms, m.heartbeat_interval_ms, m.campaigns, m.workers);
}

// The metrics blob (WorkerFinal, StatusReply campaigns): counters, then gauges,
// each as a u32 count of (name, u64 value) entries in name order. It keeps its
// own codec because its decoder bounds each count by the blob's remaining bytes
// and rejects a name that repeats within one map.
void PutMetrics(ByteWriter* writer, const telemetry::MetricsSnapshot& metrics) {
  ByteWriter blob;
  for (const auto* values : {&metrics.counters, &metrics.gauges}) {
    blob.PutU32(static_cast<uint32_t>(values->size()));
    for (const auto& [name, value] : *values) {
      blob.PutLengthPrefixed(name);
      blob.PutU64(value);
    }
  }
  writer->PutLengthPrefixed(blob.bytes());
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
      std::vector<uint8_t> name_bytes = blob_reader.GetLengthPrefixed();
      uint64_t value = blob_reader.GetU64();
      if (blob_reader.failed()) {
        return DataLossError("metrics blob truncated");
      }
      std::string name(name_bytes.begin(), name_bytes.end());
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

// Appends each visited field to the payload. Fields arrive as mutable references
// (one list serves both directions); the Writer only reads them.
class Writer {
 public:
  template <class... T>
  void operator()(T&... fields) {
    (Write(fields), ...);
  }

  // A named field of a journal list: the name stays off the wire.
  template <class T>
  Writer& operator()(const char* /*key*/, T& field) {
    (*this)(field);
    return *this;
  }

  std::vector<uint8_t> TakeBytes() { return out_.TakeBytes(); }

 private:
  void Write(uint8_t& v) { out_.PutU8(v); }
  void Write(bool& v) { out_.PutU8(v ? 1 : 0); }
  void Write(RestoreMode& v) { out_.PutU8(static_cast<uint8_t>(v)); }
  void Write(ShardPhase& v) { out_.PutU8(static_cast<uint8_t>(v)); }
  void Write(uint32_t& v) { out_.PutU32(v); }
  void Write(int& v) { out_.PutU32(static_cast<uint32_t>(v)); }
  void Write(uint64_t& v) { out_.PutU64(v); }
  void Write(std::string& v) { out_.PutLengthPrefixed(v); }
  void Write(std::vector<uint8_t>& v) { out_.PutLengthPrefixed(v); }
  void Write(telemetry::MetricsSnapshot& v) { PutMetrics(&out_, v); }

  template <class A, class B>
  void Write(std::pair<A, B>& v) {
    (*this)(v.first, v.second);
  }

  template <class T>
  void Write(std::vector<T>& items) {
    out_.PutU32(static_cast<uint32_t>(items.size()));
    for (T& item : items) {
      Write(item);
    }
  }

  void Write(telemetry::BugReport& bug) {
    Write(bug.at);
    telemetry::Fields(*this, bug);
  }

  template <class T>
  void Write(T& nested) {
    Fields(*this, nested);
  }

  ByteWriter out_;
};

// Fills each visited field from the payload. The first error sticks and every
// later field is skipped, so a vector's count never drives reads past it.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& payload) : in_(payload) {}

  template <class... T>
  void operator()(T&... fields) {
    ((ok() ? Read(fields) : void()), ...);
  }

  // A named field of a journal list: the wire carries the value only.
  template <class T>
  Reader& operator()(const char* /*key*/, T& field) {
    (*this)(field);
    return *this;
  }

  // Every payload byte must have been consumed exactly.
  Status Finish(const char* what) const {
    RETURN_IF_ERROR(status_);
    if (in_.failed()) {
      return DataLossError(StrFormat("%s payload truncated", what));
    }
    if (in_.remaining() != 0) {
      return DataLossError(
          StrFormat("%s payload has %zu trailing bytes", what, in_.remaining()));
    }
    return OkStatus();
  }

 private:
  bool ok() const { return status_.ok() && !in_.failed(); }

  // One byte that must not exceed `max`: a bool's 1 or an enum's last enumerator.
  template <class T>
  uint8_t ReadByteUpTo(const char* what, T max) {
    uint8_t raw = in_.GetU8();
    if (raw > static_cast<uint8_t>(max)) {
      status_ = DataLossError(
          StrFormat("%s byte %u is out of range", what, static_cast<unsigned>(raw)));
    }
    return raw;
  }

  void Read(uint8_t& v) { v = in_.GetU8(); }
  void Read(bool& v) { v = ReadByteUpTo("bool", 1) != 0; }
  void Read(RestoreMode& v) {
    v = static_cast<RestoreMode>(ReadByteUpTo("restore mode", RestoreMode::kSnapshot));
  }
  void Read(ShardPhase& v) {
    v = static_cast<ShardPhase>(ReadByteUpTo("shard phase", ShardPhase::kDone));
  }
  void Read(uint32_t& v) { v = in_.GetU32(); }
  void Read(int& v) {
    uint32_t raw = in_.GetU32();
    if (raw > static_cast<uint32_t>(INT_MAX)) {
      status_ = DataLossError(StrFormat("value %u overflows an int", raw));
    }
    v = static_cast<int>(raw);
  }
  void Read(uint64_t& v) { v = in_.GetU64(); }
  void Read(std::vector<uint8_t>& v) { v = in_.GetLengthPrefixed(); }
  void Read(telemetry::MetricsSnapshot& v) { status_ = GetMetrics(&in_, &v); }

  void Read(std::string& v) {
    std::vector<uint8_t> bytes = in_.GetLengthPrefixed();
    v.assign(bytes.begin(), bytes.end());
  }

  template <class A, class B>
  void Read(std::pair<A, B>& v) {
    (*this)(v.first, v.second);
  }

  template <class T>
  void Read(std::vector<T>& items) {
    uint32_t count = in_.GetU32();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      Read(items.emplace_back());
    }
  }

  void Read(telemetry::BugReport& bug) {
    (*this)(bug.at);
    telemetry::Fields(*this, bug);
  }

  template <class T>
  void Read(T& nested) {
    Fields(*this, nested);
  }

  ByteReader in_;
  Status status_;
};

template <class Msg>
std::vector<uint8_t> EncodeFields(const Msg& msg) {
  Writer writer;
  Fields(writer, const_cast<Msg&>(msg));  // the Writer never modifies a field
  return writer.TakeBytes();
}

template <class Msg>
Result<Msg> DecodeFields(const char* what, const std::vector<uint8_t>& payload) {
  Msg msg;
  Reader reader(payload);
  Fields(reader, msg);
  RETURN_IF_ERROR(reader.Finish(what));
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

// The public pair of each message: its field list run through a Writer or a Reader.
#define EOF_FLEET_CODEC(Name)                                                     \
  std::vector<uint8_t> Encode(const Name##Msg& msg) { return EncodeFields(msg); } \
  Result<Name##Msg> Decode##Name(const std::vector<uint8_t>& payload) {           \
    return DecodeFields<Name##Msg>(#Name, payload);                               \
  }

EOF_FLEET_CODEC(Hello)
EOF_FLEET_CODEC(HelloAck)
EOF_FLEET_CODEC(LeaseRequest)
EOF_FLEET_CODEC(LeaseGrant)
EOF_FLEET_CODEC(NoWork)
EOF_FLEET_CODEC(Sync)
EOF_FLEET_CODEC(SyncAck)
EOF_FLEET_CODEC(WorkerFinal)
EOF_FLEET_CODEC(FinalAck)
EOF_FLEET_CODEC(Goodbye)
EOF_FLEET_CODEC(StatusRequest)
EOF_FLEET_CODEC(StatusReply)

#undef EOF_FLEET_CODEC

}  // namespace fleet
}  // namespace eof
