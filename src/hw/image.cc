#include "src/hw/image.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/common/byteio.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace eof {
namespace {

constexpr uint32_t kPayloadMagic = 0xe0fb007u;
constexpr size_t kPayloadHeaderBytes = Payload::kHeaderBytes;

std::atomic<uint64_t> g_payload_draws{0};

}  // namespace

const std::vector<uint8_t>& Payload::bytes() const {
  std::call_once(drawn_, [this] {
    bytes_ = FirmwareImage::MakePayload(name_, seed_, body_bytes_);
    g_payload_draws.fetch_add(1, std::memory_order_relaxed);
  });
  return bytes_;
}

uint64_t Payload::draws() { return g_payload_draws.load(std::memory_order_relaxed); }

std::vector<uint8_t> FirmwareImage::MakePayload(const std::string& name, uint64_t seed,
                                                uint64_t body_bytes) {
  // The body is whole little-endian Rng::Next() words, the last one cut short, drawn in
  // place; the header in front carries the body's ChecksumBytes. Draws stage through a
  // local block because stores through the payload's uint8_t* may alias the RNG state and
  // would pin it in memory. The last block may draw words past the body; the RNG is local.
  std::vector<uint8_t> payload(kPayloadHeaderBytes + body_bytes);
  uint8_t* body = payload.data() + kPayloadHeaderBytes;
  Rng rng(Fnv1a(name, seed));
  uint64_t block[32];
  for (uint64_t done = 0; done < body_bytes;) {
    for (uint64_t& word : block) {
      word = rng.Next();
    }
    const size_t n = static_cast<size_t>(std::min<uint64_t>(sizeof block, body_bytes - done));
    std::memcpy(body + done, block, n);
    done += n;
  }
  ByteWriter header;
  header.PutU32(kPayloadMagic);
  header.PutU32(static_cast<uint32_t>(body_bytes));
  header.PutU64(ChecksumBytes(body, body_bytes));
  std::copy(header.bytes().begin(), header.bytes().end(), payload.begin());
  return payload;
}

Status FirmwareImage::VerifyPayload(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint32_t magic = reader.GetU32();
  uint32_t len = reader.GetU32();
  uint64_t crc = reader.GetU64();
  if (reader.failed() || magic != kPayloadMagic) {
    return DataLossError("bad payload magic");
  }
  if (len > reader.remaining()) {
    return DataLossError("truncated payload body");
  }
  if (ChecksumBytes(data + reader.position(), len) != crc) {
    return DataLossError("payload checksum mismatch");
  }
  return OkStatus();
}

Status FirmwareImage::AddPartition(const std::string& name, uint64_t offset, uint64_t part_size,
                                   uint64_t body_bytes, uint64_t seed) {
  // Sizes first, before drawing anything. A body that fits the u32 len cannot wrap the sum.
  if (body_bytes > UINT32_MAX) {
    return InvalidArgumentError(StrFormat("payload for '%s' overflows its u32 len", name.c_str()));
  }
  if (kPayloadHeaderBytes + body_bytes > part_size) {
    return InvalidArgumentError(
        StrFormat("payload for '%s' (%zu bytes) exceeds partition size %llu", name.c_str(),
                  kPayloadHeaderBytes + body_bytes, static_cast<unsigned long long>(part_size)));
  }
  if (!payloads_.try_emplace(name, name, seed, body_bytes).second) {
    return AlreadyExistsError(StrFormat("partition '%s' already added", name.c_str()));
  }
  table_.partitions.push_back(Partition{name, offset, part_size});
  return OkStatus();
}

Status FirmwareImage::AddRawPartition(const std::string& name, uint64_t offset,
                                      uint64_t part_size) {
  if (payloads_.count(name) != 0 || table_.Find(name) != nullptr) {
    return AlreadyExistsError(StrFormat("partition '%s' already added", name.c_str()));
  }
  table_.partitions.push_back(Partition{name, offset, part_size});
  return OkStatus();
}

Result<ModuleLayout> FirmwareImage::AddModule(const std::string& module, uint64_t bb_count) {
  if (bb_count == 0) {
    return InvalidArgumentError(StrFormat("module '%s' has zero basic blocks", module.c_str()));
  }
  for (const ModuleLayout& layout : modules_) {
    if (layout.module == module) {
      return AlreadyExistsError(StrFormat("module '%s' already declared", module.c_str()));
    }
  }
  if (next_module_base_ == 0) {
    next_module_base_ = code_base_;
  }
  ModuleLayout layout{module, next_module_base_, bb_count};
  next_module_base_ += bb_count * kBasicBlockStride;
  modules_.push_back(layout);
  return layout;
}

Result<ModuleLayout> FirmwareImage::ModuleOf(const std::string& module) const {
  for (const ModuleLayout& layout : modules_) {
    if (layout.module == module) {
      return layout;
    }
  }
  return NotFoundError(StrFormat("module '%s' not declared", module.c_str()));
}

bool FirmwareImage::InCodeSpace(uint64_t address) const {
  for (const ModuleLayout& layout : modules_) {
    if (address >= layout.base && address < layout.base + layout.bb_count * kBasicBlockStride) {
      return true;
    }
  }
  return false;
}

const FirmwareImage::Payload* FirmwareImage::PayloadOf(const std::string& partition) const {
  auto it = payloads_.find(partition);
  return it == payloads_.end() ? nullptr : &it->second;
}

bool FirmwareImage::Owns(const Payload& payload) const {
  return std::any_of(payloads_.begin(), payloads_.end(),
                     [&](const auto& entry) { return &entry.second == &payload; });
}

Status FirmwareImage::VerifyFlash(const Flash& flash) const {
  for (const Partition& part : table_.partitions) {
    const Payload* payload = PayloadOf(part.name);
    if (payload == nullptr) {
      continue;
    }
    ASSIGN_OR_RETURN(bool intact, flash.Holds(part.offset, *payload));
    // Intact bytes are the payload's own, which MakePayload draws to verify.
    if (intact) {
      continue;
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> stored, flash.Read(part.offset, payload->size()));
    Status valid = VerifyPayload(stored);
    if (!valid.ok()) {
      return DataLossError(
          StrFormat("partition '%s' failed boot validation: %s", part.name.c_str(),
                    valid.ToString().c_str()));
    }
    // CRC validity is necessary but not sufficient: the stored body must be the image's.
    return DataLossError(StrFormat("partition '%s' content mismatch", part.name.c_str()));
  }
  return OkStatus();
}

}  // namespace eof
