#include "src/agent/wire.h"

#include <cstring>

namespace eof {

WireWriter::WireWriter(std::vector<uint8_t>* out, size_t ncalls) : out_(*out) {
  out_.clear();
  PutLe(kWireMagic, 4);
  PutLe(static_cast<uint16_t>(ncalls), 2);
}

void WireWriter::PutLe(uint64_t value, size_t width) {
  const size_t at = out_.size();
  out_.resize(at + width);
  // The host is little-endian like the wire (hash.h asserts it).
  std::memcpy(out_.data() + at, &value, width);
}

void WireWriter::Call(uint32_t api_id, size_t nargs) {
  PutLe(api_id, 4);
  PutLe(static_cast<uint8_t>(nargs), 1);
}

void WireWriter::Scalar(uint64_t value) {
  PutLe(static_cast<uint8_t>(WireArgKind::kScalar), 1);
  PutLe(value, 8);
}

void WireWriter::ResultRef(uint16_t call_index) {
  PutLe(static_cast<uint8_t>(WireArgKind::kResultRef), 1);
  PutLe(call_index, 2);
}

void WireWriter::Bytes(const std::vector<uint8_t>& bytes) {
  PutLe(static_cast<uint8_t>(WireArgKind::kBytes), 1);
  PutLe(static_cast<uint32_t>(bytes.size()), 4);
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

std::vector<uint8_t> EncodeProgram(const WireProgram& program) {
  std::vector<uint8_t> out;
  WireWriter writer(&out, program.calls.size());
  for (const WireCall& call : program.calls) {
    writer.Call(call.api_id, call.args.size());
    for (const WireArg& arg : call.args) {
      switch (arg.kind) {
        case WireArgKind::kScalar:
          writer.Scalar(arg.scalar);
          break;
        case WireArgKind::kResultRef:
          writer.ResultRef(static_cast<uint16_t>(arg.scalar));
          break;
        case WireArgKind::kBytes:
          writer.Bytes(arg.bytes);
          break;
      }
    }
  }
  return out;
}

AgentError DecodeProgram(const uint8_t* data, size_t size, WireProgram* out) {
  // Calls are decoded over whatever `out` held before; every exit cuts it back to the
  // calls fully decoded, so nothing of an earlier program survives.
  std::vector<WireCall>& calls = out->calls;
  size_t decoded = 0;
  auto finish = [&](AgentError error) {
    calls.resize(decoded);
    return error;
  };
  ByteReader reader(data, size);
  if (reader.GetU32() != kWireMagic) {
    return finish(AgentError::kBadMagic);
  }
  uint16_t ncalls = reader.GetU16();
  if (reader.failed()) {
    return finish(AgentError::kTruncated);
  }
  if (ncalls > kWireMaxCalls) {
    return finish(AgentError::kTooManyCalls);
  }
  if (calls.size() < ncalls) {
    calls.resize(ncalls);
  }
  for (uint16_t i = 0; i < ncalls; ++i) {
    WireCall& call = calls[i];
    call.api_id = reader.GetU32();
    uint8_t nargs = reader.GetU8();
    if (reader.failed()) {
      return finish(AgentError::kTruncated);
    }
    call.args.resize(nargs);
    for (WireArg& arg : call.args) {
      uint8_t kind = reader.GetU8();
      switch (kind) {
        case 0:
          arg.kind = WireArgKind::kScalar;
          arg.scalar = reader.GetU64();
          arg.bytes.clear();
          break;
        case 1: {
          arg.kind = WireArgKind::kResultRef;
          uint16_t ref = reader.GetU16();
          if (ref >= i) {
            return finish(AgentError::kBadResultRef);  // may only reference earlier calls
          }
          arg.scalar = ref;
          arg.bytes.clear();
          break;
        }
        case 2: {
          arg.kind = WireArgKind::kBytes;
          arg.scalar = 0;
          uint32_t len = reader.GetU32();
          if (reader.failed() || len > kWireMaxArgBytes || len > reader.remaining()) {
            return finish(AgentError::kOversizedBytes);
          }
          arg.bytes.resize(len);
          reader.GetBytes(arg.bytes.data(), len);
          break;
        }
        default:
          return finish(AgentError::kTruncated);
      }
      if (reader.failed()) {
        return finish(AgentError::kTruncated);
      }
    }
    ++decoded;
  }
  return finish(AgentError::kNone);
}

}  // namespace eof
