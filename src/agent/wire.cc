#include "src/agent/wire.h"

#include <cstring>

namespace eof {
namespace {

constexpr size_t kCallCountOffset = 4;  // after the magic

}  // namespace

WireWriter::WireWriter(std::vector<uint8_t>* out) : out_(*out) {
  out_.clear();
  PutLe(kWireMagic, 4);
  PutLe(0, 2);
}

void WireWriter::PutLe(uint64_t value, size_t width) {
  const size_t at = out_.size();
  out_.resize(at + width);
  // The host is little-endian like the wire (hash.h asserts it).
  std::memcpy(out_.data() + at, &value, width);
}

void WireWriter::Call(uint32_t api_id, size_t nargs) {
  const uint16_t ncalls = static_cast<uint16_t>(++calls_);
  std::memcpy(out_.data() + kCallCountOffset, &ncalls, sizeof(ncalls));
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

void WireWriter::Bytes(const uint8_t* data, size_t size) {
  PutLe(static_cast<uint8_t>(WireArgKind::kBytes), 1);
  PutLe(static_cast<uint32_t>(size), 4);
  out_.insert(out_.end(), data, data + size);
}

AgentError ValidateProgram(const uint8_t* data, size_t size,
                           std::vector<uint32_t>* call_offsets) {
  call_offsets->clear();
  ByteReader reader(data, size);
  if (reader.GetU32() != kWireMagic) {
    return AgentError::kBadMagic;
  }
  const uint16_t ncalls = reader.GetU16();
  if (reader.failed()) {
    return AgentError::kTruncated;
  }
  if (ncalls > kWireMaxCalls) {
    return AgentError::kTooManyCalls;
  }
  for (uint16_t i = 0; i < ncalls; ++i) {
    const uint32_t start = static_cast<uint32_t>(reader.position());
    (void)reader.GetU32();  // api_id: any value; an unknown one fails at dispatch
    const uint8_t nargs = reader.GetU8();
    if (reader.failed()) {
      return AgentError::kTruncated;
    }
    for (uint8_t k = 0; k < nargs; ++k) {
      switch (reader.GetU8()) {
        case static_cast<uint8_t>(WireArgKind::kScalar):
          (void)reader.GetU64();
          break;
        case static_cast<uint8_t>(WireArgKind::kResultRef):
          if (reader.GetU16() >= i) {
            return AgentError::kBadResultRef;  // may only reference earlier calls
          }
          break;
        case static_cast<uint8_t>(WireArgKind::kBytes): {
          const uint32_t len = reader.GetU32();
          if (reader.failed() || len > kWireMaxArgBytes || len > reader.remaining()) {
            return AgentError::kOversizedBytes;
          }
          reader.Skip(len);
          break;
        }
        default:
          return AgentError::kTruncated;
      }
      if (reader.failed()) {
        return AgentError::kTruncated;
      }
    }
    call_offsets->push_back(start);
  }
  return AgentError::kNone;
}

}  // namespace eof
