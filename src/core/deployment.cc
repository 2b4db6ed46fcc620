#include "src/core/deployment.h"

#include <algorithm>

#include "src/common/byteio.h"
#include "src/common/strings.h"
#include "src/kernel/os.h"
#include "src/telemetry/rows.h"

namespace eof {

namespace {

Result<BoardSpec> ResolveBoardSpec(const DeployOptions& options) {
  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(options.os_name));
  return BoardSpecByName(options.board_name.empty() ? info.default_board : options.board_name);
}

}  // namespace

Result<std::shared_ptr<const FirmwareImage>> Deployment::BuildImageFor(
    const DeployOptions& options) {
  ASSIGN_OR_RETURN(BoardSpec spec, ResolveBoardSpec(options));
  ImageBuildOptions build;
  build.os_name = options.os_name;
  build.instrumentation = options.instrumentation;
  build.seed = options.seed;
  ASSIGN_OR_RETURN(std::shared_ptr<FirmwareImage> image, BuildImage(spec, build));
  return std::shared_ptr<const FirmwareImage>(std::move(image));
}

Result<std::unique_ptr<Deployment>> Deployment::Create(const DeployOptions& options) {
  ASSIGN_OR_RETURN(BoardSpec spec, ResolveBoardSpec(options));
  std::shared_ptr<const FirmwareImage> image = options.image;
  if (image == nullptr) {
    ASSIGN_OR_RETURN(image, BuildImageFor(options));
  }

  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->image_ = image;
  deployment->ram_base_ = spec.ram_base;
  deployment->ring_.ram_offset = kCovRingOffset;
  deployment->ring_.capacity = CovRingCapacityFor(spec.ram_bytes);
  deployment->board_ = std::make_unique<Board>(spec);
  deployment->board_->InstallImage(image);
  deployment->telemetry_ = options.telemetry;
  const uint64_t mailbox = spec.ram_base + kMailboxOffset;
  deployment->mailbox_ops_.push_back(PortOp::Write(mailbox + kMailboxDataOffset, {}));
  deployment->mailbox_ops_.push_back(PortOp::Write(mailbox + kMailboxFlagOffset, {}));
  deployment->port_ = std::make_unique<DebugPort>(
      deployment->board_.get(),
      options.telemetry != nullptr ? &options.telemetry->registry() : nullptr);

  RETURN_IF_ERROR(deployment->port_->Connect());
  RETURN_IF_ERROR(deployment->ReflashAndReboot());
  // Reject a target whose booted agent stamped a different ring layout than the
  // host compiled against — a silent mismatch would drain empty coverage forever.
  RETURN_IF_ERROR(deployment->ValidateCovRing());
  return deployment;
}

Status Deployment::ValidateCovRing() {
  if (ring_.capacity == 0) {
    return OkStatus();
  }
  uint64_t ring_base = ram_base_ + ring_.ram_offset;
  ASSIGN_OR_RETURN(std::vector<uint8_t> raw, port_->ReadMem(ring_base, 8));
  ByteReader reader(raw);
  uint32_t version = reader.GetU32();
  uint32_t capacity = reader.GetU32();
  if (version != CovRingLayout::kVersionMagic) {
    return FailedPreconditionError(
        StrFormat("coverage ring header version 0x%08x != expected 0x%08x: the booted "
                  "agent uses an incompatible ring layout",
                  version, CovRingLayout::kVersionMagic));
  }
  if (capacity != ring_.capacity) {
    return FailedPreconditionError(
        StrFormat("coverage ring capacity mismatch: target stamped %u, host expects %u",
                  capacity, ring_.capacity));
  }
  return OkStatus();
}

Status Deployment::ReflashAndReboot() {
  telemetry::Tracer::Span span;
  if (telemetry_ != nullptr) {
    span = telemetry_->tracer().Begin("reflash", port_->Now());
  }
  uint64_t flash_base = board_->spec().flash_base;
  uint64_t programmed = 0;  // flash bytes reprogrammed
  uint64_t skipped = 0;     // flash bytes proven clean
  Status status = OkStatus();
  for (const Partition& part : image_->partition_table().partitions) {
    const FirmwareImage::Payload* payload = image_->PayloadOf(part.name);
    if (payload == nullptr) {
      continue;  // raw partitions (nvs) carry no payload
    }
    const uint64_t size = payload->size();
    // Delta reflash: prove the partition's on-flash content unchanged with a
    // target-assisted checksum (~KB/s-free: only the digest crosses the link) and
    // skip the 5 us/byte reprogram when the flash still holds the payload. A checksum
    // failure (severed link) aborts the restore like a failed flash write would —
    // retrying with a blind reflash would only burn a second link timeout.
    Result<bool> held = port_->FlashHolds(flash_base + part.offset, *payload);
    if (!held.ok()) {
      status = held.status();
      break;
    }
    if (held.value()) {
      port_->NoteFlashSkipped(size);
      skipped += size;
      continue;
    }
    status = port_->FlashPartition(part.offset, *payload);
    if (!status.ok()) {
      break;
    }
    programmed += size;
  }
  if (status.ok()) {
    status = port_->ResetTarget();
  }
  if (telemetry_ != nullptr) {
    telemetry_->tracer().End(span, port_->Now(), /*journal=*/true);
    if (status.ok()) {
      telemetry::Journal(telemetry_->sink(), port_->Now(), telemetry_->worker(), [&] {
        return telemetry::DeltaReflashRow{programmed, skipped};
      });
    }
  }
  return status;
}

Result<uint64_t> Deployment::SymbolAddress(const std::string& symbol) const {
  return image_->symbols().AddressOf(symbol);
}

Status Deployment::WriteTestCase(const std::vector<uint8_t>& encoded) {
  if (encoded.size() > kMailboxMaxBytes) {
    return InvalidArgumentError(StrFormat("test case of %zu bytes exceeds the mailbox",
                                          encoded.size()));
  }
  // Payload first, then length and the ready flag — the flag write publishes the case.
  // Batch ops commit in queue order, so inside the one round trip the flag still lands
  // after the payload.
  mailbox_ops_[0].data.assign(encoded.begin(), encoded.end());
  std::vector<uint8_t>& header = mailbox_ops_[1].data;  // LE u32 flag = 1, u32 length
  header.assign(8, 0);
  header[0] = 1;
  for (size_t i = 0; i < 4; ++i) {
    header[4 + i] = static_cast<uint8_t>(encoded.size() >> (8 * i));
  }
  return port_->RunBatch(&mailbox_ops_);
}

AgentStatusView Deployment::ParseStatusBlock(const std::vector<uint8_t>& raw) {
  ByteReader reader(raw);
  AgentStatusView view;
  view.state = static_cast<AgentState>(reader.GetU32());
  view.last_error = static_cast<AgentError>(reader.GetU32());
  view.calls_done = reader.GetU32();
  view.progs_done = reader.GetU32();
  view.total_calls = reader.GetU32();
  return view;
}

Result<AgentStatusView> Deployment::ReadAgentStatus() {
  ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                   port_->ReadMem(status_address(), kStatusBlockSize));
  return ParseStatusBlock(raw);
}

namespace {

// Stores `op` in plan slot `index`, which is at most one past the end. A slot that
// already exists keeps its result buffer, so a plan rebuilt in place stops
// allocating for its reads.
void SetPlanOp(std::vector<PortOp>* ops, size_t index, PortOp op) {
  if (index == ops->size()) {
    ops->push_back(std::move(op));
    return;
  }
  op.result.swap((*ops)[index].result);
  (*ops)[index] = std::move(op);
}

// Parses `count` 12-byte {u64 edge, u32 call} entries from `reader`.
void ParseCovEntries(ByteReader& reader, uint32_t count, std::vector<CovHit>* out) {
  for (uint32_t i = 0; i < count; ++i) {
    CovHit hit;
    hit.edge = reader.GetU64();
    hit.call = reader.GetU32();
    out->push_back(hit);
  }
}

}  // namespace

Status Deployment::SetBankFlipMode(bool enabled) {
  flip_mode_ = enabled;
  if (ring_.capacity == 0) {
    return OkStatus();
  }
  // The target is stopped and owns only the bank bit, which every boot path and
  // every drain leaves at 0 when this runs (deploy and cold restore re-arm from a
  // zeroed header), so a plain write of the host-owned flag is safe.
  ByteWriter word;
  word.PutU32(enabled ? CovRingLayout::kBankFlipEnableBit : 0);
  return port_->WriteMem(ram_base_ + ring_.ram_offset + CovRingLayout::kActiveBankOffset,
                         word.bytes());
}

Result<uint32_t> Deployment::CollectBank(const PortOp& op, uint32_t bank,
                                         uint32_t prefetch, uint32_t* count_out,
                                         std::vector<CovHit>* out) {
  ByteReader reader(op.result);
  uint32_t count = reader.GetU32();
  uint32_t drop_count = reader.GetU32();
  if (count > ring_.capacity) {
    count = ring_.capacity;  // a scribbled header must not drive a huge read
  }
  *count_out = count;
  uint32_t from_prefetch = std::min(count, prefetch);
  ParseCovEntries(reader, from_prefetch, out);
  if (count > from_prefetch) {
    // The speculative window undershot: fetch the tail in one follow-up read.
    // Race-free in every caller: immediate drains run against a stopped target,
    // and a plan's subtracts committed before the continue released the core, so
    // the entries the plan's reads covered are frozen.
    ASSIGN_OR_RETURN(
        std::vector<uint8_t> raw,
        port_->ReadMem(
            ram_base_ + ring_.EntryOffset(bank, from_prefetch),
            static_cast<uint64_t>(count - from_prefetch) * CovRingLayout::kEntryBytes));
    ByteReader tail(raw);
    ParseCovEntries(tail, count - from_prefetch, out);
  }
  return drop_count;
}

Status Deployment::DrainCoverage(std::vector<CovHit>* out, uint32_t* dropped,
                                 AgentStatusView* status) {
  MakeDrainPlan(&drain_plan_, /*read_status=*/status != nullptr);
  RETURN_IF_ERROR(port_->RunBatch(&drain_plan_.ops));
  RETURN_IF_ERROR(FinishDrainPlan(&drain_plan_, out, dropped));
  if (status != nullptr) {
    *status = ParseStatusBlock(drain_plan_.ops.back().result);
  }
  return OkStatus();
}

void Deployment::AdaptPrefetch(uint32_t count, uint32_t prefetch) {
  // Grow fast on an undershoot, decay gently toward recent counts so alternating
  // full/empty drains do not thrash the speculative read size.
  if (count > prefetch) {
    prefetch_hint_ = std::min(ring_.capacity, std::max<uint32_t>(16, count * 2));
  } else {
    prefetch_hint_ = std::max<uint32_t>(16, (prefetch_hint_ + count) / 2);
  }
}

void Deployment::MakeDrainPlan(DrainPlan* plan, bool read_status) {
  // One round trip in the common case. Per drained bank:
  //   read    bank header + `prefetch` speculative entries (contiguous)
  //   count   -= the count the read saw   (adapter-side read-modify-write)
  //   dropped -= the drops the read saw
  // The subtracts land target-side after the read, so entries the target appends in
  // between are preserved: the header keeps exactly the not-yet-drained tail. In
  // flip mode the active_bank word leads the plan to order the banks (parked first);
  // the target owns the bank bit and the host never flips it. A plan ridden on a
  // continue commits against the stopped target before the core is released, so
  // everything its reads covered is frozen and the undershoot tails can be fetched
  // after the next stop without racing appends.
  plan->prefetch = std::min(prefetch_hint_, ring_.capacity);
  plan->both_banks = flip_mode_;
  uint64_t bank_read_bytes =
      CovRingLayout::kBankHeaderBytes +
      static_cast<uint64_t>(plan->prefetch) * CovRingLayout::kEntryBytes;
  std::vector<PortOp>* ops = &plan->ops;
  size_t n = 0;
  if (plan->both_banks) {
    SetPlanOp(ops, n++,
              PortOp::Read(ram_base_ + ring_.ram_offset + CovRingLayout::kActiveBankOffset,
                           4));
  }
  for (uint32_t bank = 0; bank < (plan->both_banks ? 2u : 1u); ++bank) {
    uint64_t bank_base = ram_base_ + ring_.BankOffset(bank);
    const int read_op = static_cast<int>(n);
    SetPlanOp(ops, n++, PortOp::Read(bank_base, bank_read_bytes));
    SetPlanOp(ops, n++,
              PortOp::SubU32(bank_base + CovRingLayout::kCountOffset, read_op,
                             /*operand_offset=*/0));
    SetPlanOp(ops, n++,
              PortOp::SubU32(bank_base + CovRingLayout::kDroppedOffset, read_op,
                             /*operand_offset=*/4));
  }
  if (read_status) {
    SetPlanOp(ops, n++, PortOp::Read(status_address(), kStatusBlockSize));
  }
  ops->resize(n);
}

Status Deployment::FinishDrainPlan(DrainPlan* plan, std::vector<CovHit>* out,
                                   uint32_t* dropped) {
  // Three ops per bank, after the active_bank word when both banks ride. Surface the
  // oldest entries first: the parked bank the target flipped away from, then the one
  // it was filling. Without flips the target never leaves bank 0.
  uint32_t active = 0;
  size_t first_bank_op = 0;
  uint32_t banks[2] = {0, 0};
  size_t bank_count = 0;
  if (plan->both_banks) {
    ByteReader bank_word(plan->ops[0].result);
    active = bank_word.GetU32() & CovRingLayout::kActiveBankMask;
    first_bank_op = 1;
    banks[bank_count++] = active ^ 1;
  }
  banks[bank_count++] = active;
  const size_t kept = out->size();
  uint32_t drop_total = 0;
  uint32_t max_count = 0;
  for (size_t i = 0; i < bank_count; ++i) {
    uint32_t count = 0;
    Result<uint32_t> drop_count = CollectBank(plan->ops[first_bank_op + 3 * banks[i]],
                                              banks[i], plan->prefetch, &count, out);
    if (!drop_count.ok()) {
      out->resize(kept);
      return drop_count.status();
    }
    drop_total += drop_count.value();
    max_count = std::max(max_count, count);
  }
  if (dropped != nullptr) {
    *dropped = drop_total;
  }
  AdaptPrefetch(max_count, plan->prefetch);
  return OkStatus();
}

}  // namespace eof
