#include "src/baselines/byte_fuzzer.h"

#include <algorithm>

#include "src/agent/wire.h"
#include "src/common/byteio.h"
#include "src/common/strings.h"
#include "src/kernel/os.h"

namespace eof {
namespace {

constexpr int kMaxContinueRounds = 5;

}  // namespace

const char* ByteFuzzerModeName(ByteFuzzerMode mode) {
  switch (mode) {
    case ByteFuzzerMode::kGdbFuzz:
      return "gdbfuzz";
    case ByteFuzzerMode::kShift:
      return "shift";
    case ByteFuzzerMode::kGustave:
      return "gustave";
  }
  return "?";
}

Status ByteFuzzer::Setup() {
  DeployOptions deploy;
  deploy.os_name = config_.os_name;
  deploy.board_name = config_.board_name;
  deploy.seed = config_.seed;
  switch (config_.mode) {
    case ByteFuzzerMode::kGdbFuzz:
      // No target instrumentation at all: coverage comes from hardware breakpoints.
      deploy.instrumentation.enabled = false;
      break;
    case ByteFuzzerMode::kShift:
      // Semihosting instrumentation, confined to the application under test.
      deploy.instrumentation.enabled = true;
      deploy.instrumentation.semihost = true;
      deploy.instrumentation.module_filter = {"apps/"};
      break;
    case ByteFuzzerMode::kGustave:
      // QEMU TCG tracing: full-image coverage without an on-target cost model change.
      deploy.instrumentation.enabled = true;
      if (deploy.board_name.empty()) {
        deploy.board_name = "qemu-virt-riscv";
      }
      break;
  }
  ASSIGN_OR_RETURN(deployment_, Deployment::Create(deploy));
  rng_ = std::make_unique<Rng>(config_.seed ^ 0xb17ef0ddULL);
  mutator_ = std::make_unique<fuzz::ByteMutator>(config_.max_input_len);

  ASSIGN_OR_RETURN(OsInfo info, OsRegistry::Instance().Find(config_.os_name));
  std::unique_ptr<Os> os = info.factory();
  if (config_.mode == ByteFuzzerMode::kGustave) {
    // GUSTAVE decodes buffers into sequences over the whole (base-tier) registry.
    gustave_api_count_ = os->registry().size();
    for (const ApiSpec& api : os->registry().all()) {
      std::vector<ArgKind> signature;
      for (const ArgSpec& arg : api.args) {
        signature.push_back(arg.kind);
      }
      gustave_signatures_.push_back(std::move(signature));
    }
  } else {
    const char* entry_name = config_.entry == "json" ? "json_parse" : "http_handle_raw";
    const ApiSpec* entry = os->registry().FindByName(entry_name);
    if (entry == nullptr) {
      return NotFoundError(StrFormat("entry '%s' not on target", entry_name));
    }
    entry_api_ = entry->id;
    if (config_.entry == "http") {
      const ApiSpec* setup = os->registry().FindByName("http_server_start");
      if (setup == nullptr) {
        return NotFoundError("http_server_start not on target");
      }
      setup_api_ = setup->id;
      has_setup_ = true;
    }
  }

  ASSIGN_OR_RETURN(executor_main_addr_, deployment_->SymbolAddress("executor_main"));
  RETURN_IF_ERROR(deployment_->port().SetBreakpoint(executor_main_addr_));

  if (config_.mode == ByteFuzzerMode::kGdbFuzz) {
    // The static-analysis step: candidate basic blocks of the modules under test.
    std::vector<std::string> modules = config_.entry == "json"
                                           ? std::vector<std::string>{"apps/json"}
                                           : std::vector<std::string>{"apps/http"};
    for (const std::string& module : modules) {
      auto layout = deployment_->image().ModuleOf(module);
      if (!layout.ok()) {
        return layout.status();
      }
      for (uint64_t i = 0; i < layout.value().bb_count; ++i) {
        bb_candidates_.push_back(layout.value().base + i * kBasicBlockStride);
      }
    }
    // Random probing order, as GDBFuzz does when CFG ordering gives no hint.
    for (size_t i = bb_candidates_.size(); i > 1; --i) {
      std::swap(bb_candidates_[i - 1], bb_candidates_[rng_->Index(i)]);
    }
    RETURN_IF_ERROR(PlantBreakpoints());
  }

  SeedCorpus();
  start_time_ = deployment_->port().Now();
  sampler_.emplace(config_.budget, config_.sample_points);
  return OkStatus();
}

Status ByteFuzzer::RotateBreakpoints() {
  // Unhit probes go back to the end of the queue; fresh candidates take their slots.
  std::vector<uint64_t> recycled(bb_planted_.begin(), bb_planted_.end());
  for (uint64_t address : recycled) {
    RETURN_IF_ERROR(deployment_->port().ClearBreakpoint(address));
  }
  bb_planted_.clear();
  bb_candidates_.insert(bb_candidates_.begin(), recycled.begin(), recycled.end());
  return PlantBreakpoints();
}

void ByteFuzzer::SeedCorpus() {
  std::vector<std::string> seeds;
  if (config_.mode == ByteFuzzerMode::kShift) {
    // SHiFT's harness feeds AFL-style raw buffers without a curated seed corpus (the
    // paper's Table 4 shows it far below GDBFuzz on JSON despite a richer coverage
    // signal — input quality, not observation, is its bottleneck).
    return;
  }
  if (config_.mode == ByteFuzzerMode::kGustave) {
    // GUSTAVE ships minimal seed tapes: a partition brought to NORMAL mode with a thread,
    // and a queuing-port round trip. Encoded against the tape format in BuildProgram.
    auto tape = [&](std::initializer_list<uint8_t> bytes) {
      corpus_.push_back(SeedEntry{std::vector<uint8_t>(bytes), 1});
    };
    // pok_partition_create("p0", 4096, 100); set_mode(ref, NORMAL); thread_create(ref,..)
    tape({0, 2, 'p', '0', 0x00, 0x10, 0, 0, 100, 0, 0, 0,      // partition_create
          1, 1, 3, 0, 0, 0,                                    // set_mode(ref 0, 3)
          2, 1, 10, 0, 0, 0, 50, 0, 0, 0});                    // thread_create(ref 0,...)
    // queuing port create + send + receive.
    tape({7, 3, 'q', 'p', '0', 32, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0,  // qport create
          8, 1, 4, 'm', 's', 'g', '1',                               // send(ref, "msg1")
          9, 1});                                                    // receive(ref)
    return;
  }
  if (config_.entry == "http") {
    seeds = {
        "GET / HTTP/1.1\r\nhost: device.local\r\n\r\n",
        "GET /api/status?verbose=1 HTTP/1.1\r\nhost: a\r\n\r\n",
        "POST /api/led HTTP/1.1\r\ncontent-length: 2\r\n\r\non",
        "PUT /upload HTTP/1.1\r\ncontent-length: 4\r\n\r\nDATA",
        "DELETE /files/a.txt HTTP/1.0\r\n\r\n",
    };
  } else {
    seeds = {
        "{\"k\":1}",
        "[1,-2.5e+3,\"a\\n\",true,false,null]",
        "{\"a\":{\"b\":[{},\"\\u0041\"]}}",
        "  [ ]  ",
    };
  }
  for (const std::string& seed : seeds) {
    corpus_.push_back(SeedEntry{std::vector<uint8_t>(seed.begin(), seed.end()), 1});
  }
}

Status ByteFuzzer::PlantBreakpoints() {
  int budget = deployment_->board_spec().max_hw_breakpoints;
  budget -= static_cast<int>(bb_planted_.size());
  while (budget > 0 && !bb_candidates_.empty()) {
    uint64_t address = bb_candidates_.back();
    bb_candidates_.pop_back();
    if (bb_hit_.count(address) != 0) {
      continue;
    }
    Status planted = deployment_->port().SetBreakpoint(address);
    if (!planted.ok()) {
      bb_candidates_.push_back(address);
      return planted.code() == ErrorCode::kResourceExhausted ? OkStatus() : planted;
    }
    bb_planted_.insert(address);
    --budget;
  }
  return OkStatus();
}

// The published baseline tools issue one GDB/OpenOCD command per operation; EOF's
// vectored link batching and delta reflash are not part of their designs. The three
// helpers below are that per-op traffic, one link round trip per port call.

Status ByteFuzzer::PublishTestCase(const std::vector<uint8_t>& encoded) {
  if (encoded.size() > kMailboxMaxBytes) {
    return InvalidArgumentError(StrFormat("test case of %zu bytes exceeds the mailbox",
                                          encoded.size()));
  }
  DebugPort& port = deployment_->port();
  uint64_t base = deployment_->board_spec().ram_base + kMailboxOffset;
  ByteWriter header;
  header.PutU32(1);  // flag
  header.PutU32(static_cast<uint32_t>(encoded.size()));
  // Payload first, then length, then the ready flag — the flag write publishes the case.
  RETURN_IF_ERROR(port.WriteMem(base + kMailboxDataOffset, encoded));
  return port.WriteMem(base + kMailboxFlagOffset, header.bytes());
}

Result<std::vector<CovHit>> ByteFuzzer::DrainRing() {
  // Global+bank-0 header read, entries read, blind 0/0 bank-header write. The
  // baselines never grant bank flips, so the target never leaves bank 0; entries
  // appended between the reads and the reset are lost.
  DebugPort& port = deployment_->port();
  uint64_t ram_base = deployment_->board_spec().ram_base;
  CovRingLayout ring = deployment_->cov_ring();
  ASSIGN_OR_RETURN(std::vector<uint8_t> header,
                   port.ReadMem(ram_base + ring.ram_offset,
                                CovRingLayout::kGlobalHeaderBytes +
                                    CovRingLayout::kBankHeaderBytes));
  ByteReader reader(header);
  reader.GetU32();  // version (validated at deploy time)
  reader.GetU32();  // capacity
  reader.GetU32();  // current_call
  reader.GetU32();  // active_bank
  uint32_t count = std::min(reader.GetU32(), ring.capacity);  // clamp a scribbled count
  uint64_t bank_base = ram_base + ring.BankOffset(0);
  std::vector<CovHit> entries;
  if (count > 0) {
    ASSIGN_OR_RETURN(
        std::vector<uint8_t> raw,
        port.ReadMem(bank_base + CovRingLayout::kBankHeaderBytes,
                     static_cast<uint64_t>(count) * CovRingLayout::kEntryBytes));
    ByteReader entry_reader(raw);
    entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      CovHit hit;
      hit.edge = entry_reader.GetU64();
      hit.call = entry_reader.GetU32();
      entries.push_back(hit);
    }
  }
  ByteWriter zero;
  zero.PutU32(0);
  zero.PutU32(0);
  RETURN_IF_ERROR(port.WriteMem(bank_base, zero.bytes()));
  return entries;
}

Status ByteFuzzer::Restore() {
  ++result_.restores;
  // Full reflash of every payload partition, then reboot: no checksum-skip.
  const FirmwareImage& image = deployment_->image();
  for (const Partition& part : image.partition_table().partitions) {
    const FirmwareImage::Payload* payload = image.PayloadOf(part.name);
    if (payload != nullptr) {  // raw partitions (nvs) carry no payload
      RETURN_IF_ERROR(deployment_->port().FlashPartition(part.offset, *payload));
    }
  }
  RETURN_IF_ERROR(deployment_->port().ResetTarget());
  RETURN_IF_ERROR(deployment_->port().SetBreakpoint(executor_main_addr_));
  if (config_.mode == ByteFuzzerMode::kGdbFuzz) {
    for (uint64_t address : bb_planted_) {
      RETURN_IF_ERROR(deployment_->port().SetBreakpoint(address));
    }
  }
  return OkStatus();
}

std::vector<uint8_t> ByteFuzzer::NextInput() {
  if (!corpus_.empty() && rng_->Chance(3, 4)) {
    const SeedEntry& seed = corpus_[rng_->Index(corpus_.size())];
    if (corpus_.size() >= 2 && rng_->Chance(1, 8)) {
      const SeedEntry& other = corpus_[rng_->Index(corpus_.size())];
      return mutator_->Splice(seed.bytes, other.bytes, *rng_);
    }
    return mutator_->Mutate(seed.bytes, *rng_);
  }
  return mutator_->Random(*rng_);
}

void ByteFuzzer::BuildProgram(const std::vector<uint8_t>& input,
                              std::vector<uint8_t>* encoded) {
  WireWriter writer(encoded);
  if (config_.mode != ByteFuzzerMode::kGustave) {
    if (has_setup_) {
      writer.Call(setup_api_, 1);
      writer.Scalar(80);
    }
    writer.Call(entry_api_, 1);
    writer.Bytes(input.data(), input.size());
    return;
  }
  // GUSTAVE: interpret the buffer as a syscall tape: [api byte][arg bytes...] repeated.
  size_t pos = 0;
  auto take = [&](size_t n) -> uint64_t {
    uint64_t value = 0;
    for (size_t i = 0; i < n && pos < input.size(); ++i, ++pos) {
      value |= static_cast<uint64_t>(input[pos]) << (i * 8);
    }
    return value;
  };
  while (pos < input.size() && writer.calls() < 8) {
    const size_t earlier = writer.calls();
    uint32_t api = static_cast<uint32_t>(take(1)) % gustave_api_count_;
    const std::vector<ArgKind>& signature = gustave_signatures_[api];
    writer.Call(api, signature.size());
    for (ArgKind kind : signature) {
      switch (kind) {
        case ArgKind::kBuffer:
        case ArgKind::kString: {
          size_t len = static_cast<size_t>(take(1)) % 64;
          len = std::min(len, input.size() - pos);
          writer.Bytes(input.data() + pos, len);
          pos += len;
          break;
        }
        case ArgKind::kResource: {
          uint64_t raw = take(1);
          // Bind to an earlier result most of the time: GUSTAVE's interpreter resolves
          // small tape values against its object table.
          if (earlier != 0 && (raw & 3) != 0) {
            writer.ResultRef(static_cast<uint16_t>(raw % earlier));
          } else {
            writer.Scalar(raw);
          }
          break;
        }
        default:
          writer.Scalar(take(4));
          break;
      }
    }
  }
  if (writer.calls() == 0) {
    writer.Call(0, 0);
  }
}

Result<uint64_t> ByteFuzzer::ExecuteOne(const std::vector<uint8_t>& encoded) {
  DebugPort& port = deployment_->port();
  Status write = PublishTestCase(encoded);
  if (!write.ok()) {
    ++result_.timeouts;
    RETURN_IF_ERROR(Restore());
    return 0;
  }
  bool completed = false;
  for (int round = 0; round < kMaxContinueRounds && !completed; ++round) {
    auto stop = port.Continue();
    if (!stop.ok()) {
      ++result_.timeouts;
      ++result_.crashes;  // timeout-style detection: unresponsive target = crash event
      RETURN_IF_ERROR(Restore());
      return 0;
    }
    switch (stop.value().reason) {
      case HaltReason::kBreakpoint:
        if (stop.value().symbol == "executor_main") {
          auto status = deployment_->ReadAgentStatus();
          if (status.ok() && status.value().state == AgentState::kWaiting) {
            continue;  // first pause before the mailbox read
          }
          completed = true;
        }
        break;
      case HaltReason::kIdle:
        completed = true;
        break;
      default: {
        // Quantum expired: a wedged or crashed target shows up as a stalled PC.
        auto pc1 = port.ReadPC();
        auto again = port.Continue();
        auto pc2 = port.ReadPC();
        if (!pc1.ok() || !again.ok() || !pc2.ok() || pc1.value() == pc2.value()) {
          ++result_.crashes;
          ++result_.stalls;
          RETURN_IF_ERROR(Restore());
          return 0;
        }
        break;
      }
    }
  }

  uint64_t fresh = 0;
  if (config_.mode == ByteFuzzerMode::kGdbFuzz) {
    for (uint64_t address : deployment_->port().TakeBreakpointHits()) {
      if (bb_hit_.insert(address).second) {
        ++fresh;
      }
      if (bb_planted_.erase(address) != 0) {
        (void)deployment_->port().ClearBreakpoint(address);
      }
    }
    RETURN_IF_ERROR(PlantBreakpoints());
  } else {
    auto entries = DrainRing();
    if (entries.ok()) {
      fresh = coverage_.AddBatchAttributed(entries.value(), nullptr);
    }
  }
  (void)deployment_->port().DrainUart();
  return fresh;
}

void ByteFuzzer::MaybeSample() {
  sampler_->Advance(deployment_->port().Now() - start_time_, CoverageCount(),
                    &result_.series);
}

Result<CampaignResult> ByteFuzzer::Run() {
  RETURN_IF_ERROR(Setup());
  DebugPort& port = deployment_->port();
  uint64_t execs_since_reset = 0;
  while (port.Now() - start_time_ < config_.budget) {
    std::vector<uint8_t> input = NextInput();
    BuildProgram(input, &encoded_);
    ASSIGN_OR_RETURN(uint64_t fresh, ExecuteOne(encoded_));
    ++result_.execs;
    if (config_.mode == ByteFuzzerMode::kGdbFuzz && result_.execs % 8 == 0) {
      RETURN_IF_ERROR(RotateBreakpoints());
    }
    if (fresh > 0) {
      corpus_.push_back(SeedEntry{std::move(input), fresh});
      if (corpus_.size() > 2048) {
        corpus_.erase(corpus_.begin(), corpus_.begin() + 1024);
      }
    }
    if (++execs_since_reset >= 64) {
      execs_since_reset = 0;
      (void)port.ResetTarget();
      if (deployment_->board().power_state() != PowerState::kRunning) {
        RETURN_IF_ERROR(Restore());
      } else {
        RETURN_IF_ERROR(port.SetBreakpoint(executor_main_addr_));
        if (config_.mode == ByteFuzzerMode::kGdbFuzz) {
          for (uint64_t address : bb_planted_) {
            RETURN_IF_ERROR(port.SetBreakpoint(address));
          }
        }
      }
    }
    MaybeSample();
  }
  sampler_->Finish(CoverageCount(), &result_.series);
  result_.final_coverage = CoverageCount();
  result_.corpus_size = corpus_.size();
  result_.elapsed = port.Now() - start_time_;
  result_.link = port.stats();
  return result_;
}

}  // namespace eof
