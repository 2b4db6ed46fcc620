#include "src/fuzz/generator.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"

namespace eof {
namespace fuzz {
namespace {

constexpr uint64_t kBaseWeight = 10;
constexpr uint64_t kCovCreditBoost = 40;
constexpr uint64_t kCovCreditCap = 400;
constexpr uint64_t kAdjacencyBoost = 30;
constexpr int kMaxProducerDepth = 3;

}  // namespace

Generator::Generator(const spec::CompiledSpecs& specs, GeneratorOptions options,
                     uint64_t seed)
    : specs_(specs),
      options_(std::move(options)),
      rng_(seed),
      byte_mutator_(options_.max_buffer_len == 0 ? 2048 : options_.max_buffer_len) {
  spec_to_slot_.assign(specs_.calls.size(), SIZE_MAX);
  for (size_t i = 0; i < specs_.calls.size(); ++i) {
    const spec::CompiledCall& call = specs_.calls[i];
    if (!options_.use_extended && (call.extended || call.is_pseudo)) {
      continue;
    }
    if (!options_.allowed_subsystems.empty()) {
      bool allowed = false;
      for (const std::string& subsystem : options_.allowed_subsystems) {
        if (call.subsystem == subsystem) {
          allowed = true;
          break;
        }
      }
      if (!allowed) {
        continue;
      }
    }
    spec_to_slot_[i] = eligible_.size();
    eligible_.push_back(i);
  }
  EOF_CHECK(!eligible_.empty()) << "no eligible calls under the generator options";
  weights_.assign(eligible_.size(), kBaseWeight);
  cov_credit_.assign(eligible_.size(), 0);
}

uint64_t Generator::BufferCap(const ArgSpec& arg) const {
  uint64_t cap = arg.buf_max;
  if (options_.max_buffer_len != 0) {
    cap = std::min(cap, options_.max_buffer_len);
  }
  return cap;
}

size_t Generator::ProducerSpec(const std::string& kind) {
  // Pick one producer at random (there may be several, e.g. the three semaphore
  // constructors all produce "queue").
  size_t producers = 0;
  for (size_t spec_index : eligible_) {
    producers += specs_.calls[spec_index].produces == kind ? 1 : 0;
  }
  if (producers == 0) {
    return SIZE_MAX;
  }
  size_t nth = rng_.Index(producers);
  for (size_t spec_index : eligible_) {
    if (specs_.calls[spec_index].produces == kind && nth-- == 0) {
      return spec_index;
    }
  }
  return SIZE_MAX;
}

int Generator::FindProducer(const Program& program, const std::string& kind, size_t before) {
  // Scan backwards: recent producers are the live ones.
  for (size_t i = before; i-- > 0;) {
    const spec::CompiledCall& decl = specs_.calls[program.calls[i].spec_index];
    if (decl.produces == kind && rng_.Chance(3, 4)) {
      return static_cast<int>(i);
    }
  }
  // Second pass without the stochastic skip.
  for (size_t i = before; i-- > 0;) {
    if (specs_.calls[program.calls[i].spec_index].produces == kind) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ProgArg Generator::GenArg(Program* program, size_t before, const ArgSpec& arg,
                          const std::vector<ProgArg>& so_far, int depth) {
  switch (arg.kind) {
    case ArgKind::kScalar: {
      if (rng_.Below(1000) < options_.wild_scalar_per_mille) {
        return ProgArg::Scalar(rng_.InterestingInt(arg.bits));
      }
      uint64_t span = arg.max - arg.min;
      uint64_t value = arg.min + (span == UINT64_MAX ? rng_.Next() : rng_.BiasedSize(span));
      return ProgArg::Scalar(value);
    }
    case ArgKind::kFlags: {
      // The pool is the base values, then (extended tier) the extended ones.
      const size_t base = arg.flag_values.size();
      const size_t pool = base + (options_.use_extended ? arg.extended_flag_values.size() : 0);
      if (pool == 0) {
        return ProgArg::Scalar(0);
      }
      auto value_at = [&](size_t i) {
        return i < base ? arg.flag_values[i] : arg.extended_flag_values[i - base];
      };
      uint64_t value = value_at(rng_.Index(pool));
      if (arg.combinable && rng_.Chance(1, 3)) {
        value |= value_at(rng_.Index(pool));
      }
      return ProgArg::Scalar(value);
    }
    case ArgKind::kResource: {
      if (arg.optional_null && rng_.Chance(1, 12)) {
        return ProgArg::Scalar(0);
      }
      int producer = FindProducer(*program, arg.resource_kind, before);
      if (producer >= 0) {
        return ProgArg::Result(producer);
      }
      // No producer yet: emit one first (bounded), then reference it.
      if (depth < kMaxProducerDepth) {
        size_t producer_spec = ProducerSpec(arg.resource_kind);
        if (producer_spec != SIZE_MAX && program->calls.size() < kWireMaxCalls - 1) {
          size_t index = EmitCall(program, producer_spec, depth + 1);
          return ProgArg::Result(static_cast<int>(index));
        }
      }
      // Fall back to a junk handle (how real fuzzers probe validation paths).
      return ProgArg::Scalar(rng_.Chance(1, 2) ? 0 : rng_.Below(64));
    }
    case ArgKind::kBuffer: {
      uint64_t cap = BufferCap(arg);
      uint64_t len = arg.buf_min + rng_.BiasedSize(cap > arg.buf_min ? cap - arg.buf_min : 0);
      std::vector<uint8_t> bytes(len);
      for (auto& byte : bytes) {
        byte = static_cast<uint8_t>(rng_.Next());
      }
      return ProgArg::Bytes(std::move(bytes));
    }
    case ArgKind::kString: {
      if (!arg.string_set.empty() && rng_.Chance(4, 5)) {
        const std::string& pick = arg.string_set[rng_.Index(arg.string_set.size())];
        return ProgArg::Bytes(std::vector<uint8_t>(pick.begin(), pick.end()));
      }
      // Free-form text: printable, length capped like buffers.
      uint64_t cap = std::min<uint64_t>(BufferCap(arg), 128);
      uint64_t len = rng_.BiasedSize(cap);
      std::vector<uint8_t> bytes(len);
      for (auto& byte : bytes) {
        byte = static_cast<uint8_t>('a' + rng_.Below(26));
      }
      return ProgArg::Bytes(std::move(bytes));
    }
    case ArgKind::kLen: {
      // Length of the sibling buffer, occasionally off by a little (classic length-lie).
      uint64_t actual = 0;
      if (arg.len_of >= 0 && static_cast<size_t>(arg.len_of) < so_far.size()) {
        actual = so_far[static_cast<size_t>(arg.len_of)].bytes.size();
      }
      if (rng_.Chance(1, 10)) {
        actual += rng_.Below(16);
      }
      return ProgArg::Scalar(actual);
    }
  }
  return ProgArg::Scalar(0);
}

size_t Generator::EmitCall(Program* program, size_t spec_index, int depth) {
  const spec::CompiledCall& decl = specs_.calls[spec_index];
  ProgCall call;
  call.spec_index = spec_index;
  call.args.reserve(decl.args.size());
  for (const ArgSpec& arg : decl.args) {
    call.args.push_back(GenArg(program, program->calls.size(), arg, call.args, depth));
  }
  program->calls.push_back(std::move(call));
  return program->calls.size() - 1;
}

size_t Generator::PickSpec(const Program& program) {
  std::vector<uint64_t>& weights = pick_weights_;
  weights.resize(eligible_.size());
  // Adjacency: favour consumers of the resource the most recent call produced.
  const std::string* last_produced = nullptr;
  if (!program.calls.empty()) {
    last_produced = &specs_.calls[program.calls.back().spec_index].produces;
  }
  for (size_t slot = 0; slot < eligible_.size(); ++slot) {
    uint64_t weight = weights_[slot] + cov_credit_[slot];
    if (last_produced != nullptr && !last_produced->empty()) {
      for (const ArgSpec& arg : specs_.calls[eligible_[slot]].args) {
        if (arg.kind == ArgKind::kResource && arg.resource_kind == *last_produced) {
          weight += kAdjacencyBoost;
          break;
        }
      }
    }
    weights[slot] = weight;
  }
  return eligible_[rng_.WeightedIndex(weights)];
}

Program Generator::Generate() {
  Program program;
  size_t target = 1 + rng_.BiasedSize(options_.max_calls - 1);
  while (program.calls.size() < target && program.calls.size() < kWireMaxCalls - 4) {
    EmitCall(&program, PickSpec(program), 0);
  }
  return program;
}

void Generator::FixupRefs(Program* program) {
  for (size_t i = 0; i < program->calls.size(); ++i) {
    ProgCall& call = program->calls[i];
    const spec::CompiledCall& decl = specs_.calls[call.spec_index];
    for (size_t a = 0; a < call.args.size(); ++a) {
      ProgArg& arg = call.args[a];
      if (arg.kind != ProgArg::Kind::kResult) {
        continue;
      }
      bool valid = arg.ref >= 0 && static_cast<size_t>(arg.ref) < i;
      if (valid) {
        // Also require that the referenced call still produces the right kind.
        const spec::CompiledCall& producer =
            specs_.calls[program->calls[static_cast<size_t>(arg.ref)].spec_index];
        valid = a < decl.args.size() &&
                producer.produces == decl.args[a].resource_kind;
      }
      if (!valid) {
        int producer = a < decl.args.size()
                           ? FindProducer(*program, decl.args[a].resource_kind, i)
                           : -1;
        if (producer >= 0 && static_cast<size_t>(producer) < i) {
          arg = ProgArg::Result(producer);
        } else {
          arg = ProgArg::Scalar(0);
        }
      }
    }
  }
}

void Generator::MutateArgOp(Program* program) {
  if (program->calls.empty()) {
    return;
  }
  size_t call_index = rng_.Index(program->calls.size());
  ProgCall& call = program->calls[call_index];
  if (call.args.empty()) {
    return;
  }
  size_t arg_index = rng_.Index(call.args.size());
  const spec::CompiledCall& decl = specs_.calls[call.spec_index];
  if (arg_index >= decl.args.size()) {
    return;
  }
  const ArgSpec& arg_spec = decl.args[arg_index];
  ProgArg& arg = call.args[arg_index];

  if (arg.kind == ProgArg::Kind::kBytes && rng_.Chance(2, 3)) {
    // Havoc the payload in place rather than regenerating.
    arg.bytes = byte_mutator_.Mutate(arg.bytes, rng_);
    uint64_t cap = BufferCap(arg_spec);
    if (arg.bytes.size() > cap) {
      arg.bytes.resize(cap);
    }
    return;
  }
  if (arg.kind == ProgArg::Kind::kScalar && rng_.Chance(1, 2)) {
    // Local perturbation: increments and bitflips find neighbouring branches.
    switch (rng_.Below(3)) {
      case 0:
        arg.scalar += rng_.CoinFlip() ? 1 : -1;
        break;
      case 1:
        arg.scalar ^= 1ULL << rng_.Below(arg_spec.bits == 0 ? 32 : arg_spec.bits);
        break;
      default:
        arg.scalar = rng_.InterestingInt(arg_spec.bits);
        break;
    }
    return;
  }
  // Full regeneration (may rebind resources to earlier calls; no producer insertion).
  arg = GenArg(program, call_index, arg_spec, call.args, kMaxProducerDepth);
  if (arg.kind == ProgArg::Kind::kResult &&
      (arg.ref < 0 || static_cast<size_t>(arg.ref) >= call_index)) {
    arg = ProgArg::Scalar(0);
  }
}

void Generator::InsertCallOp(Program* program) {
  if (program->calls.size() >= kWireMaxCalls - 4) {
    return;
  }
  // Set the suffix aside so the call (and any producers it needs) is emitted at the
  // end of the prefix, then reattach the suffix with refs shifted.
  size_t position = rng_.Index(program->calls.size() + 1);
  const auto split = program->calls.begin() + static_cast<std::ptrdiff_t>(position);
  suffix_.assign(std::make_move_iterator(split), std::make_move_iterator(program->calls.end()));
  program->calls.erase(split, program->calls.end());
  EmitCall(program, PickSpec(*program), 0);
  size_t inserted = program->calls.size() - position;
  for (ProgCall& call : suffix_) {
    for (ProgArg& arg : call.args) {
      if (arg.kind == ProgArg::Kind::kResult &&
          static_cast<size_t>(arg.ref) >= position) {
        arg.ref += static_cast<int>(inserted);
      }
    }
    program->calls.push_back(std::move(call));
  }
  suffix_.clear();
}

void Generator::RemoveCallOp(Program* program) {
  if (program->calls.size() <= 1) {
    return;
  }
  size_t victim = rng_.Index(program->calls.size());
  program->calls.erase(program->calls.begin() + static_cast<std::ptrdiff_t>(victim));
  for (size_t i = 0; i < program->calls.size(); ++i) {
    for (ProgArg& arg : program->calls[i].args) {
      if (arg.kind == ProgArg::Kind::kResult && static_cast<size_t>(arg.ref) > victim) {
        --arg.ref;
      }
    }
  }
  FixupRefs(program);
}

void Generator::DuplicateCallOp(Program* program) {
  if (program->calls.empty() || program->calls.size() >= kWireMaxCalls - 4) {
    return;
  }
  size_t source = rng_.Index(program->calls.size());
  ProgCall copy = program->calls[source];
  // Append at the end so existing refs stay valid; the copy's own refs already point
  // earlier.
  program->calls.push_back(std::move(copy));
}

void Generator::AppendCallsOp(Program* program) {
  size_t add = 1 + rng_.Below(3);
  for (size_t i = 0; i < add && program->calls.size() < kWireMaxCalls - 4; ++i) {
    EmitCall(program, PickSpec(*program), 0);
  }
}

void Generator::MutateInPlace(Program* program) {
  uint64_t rounds = 1 + rng_.Below(3);
  for (uint64_t round = 0; round < rounds; ++round) {
    switch (rng_.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        MutateArgOp(program);
        break;
      case 4:
      case 5:
        AppendCallsOp(program);
        break;
      case 6:
        InsertCallOp(program);
        break;
      case 7:
        RemoveCallOp(program);
        break;
      case 8:
        DuplicateCallOp(program);
        break;
      default:
        MutateArgOp(program);
        break;
    }
  }
  if (program->calls.empty()) {
    *program = Generate();
  }
}

void Generator::SpliceInPlace(Program* program, const Program& tail_source) {
  const std::vector<ProgCall>& b = tail_source.calls;
  size_t head = program->calls.empty() ? 0 : rng_.Index(program->calls.size() + 1);
  size_t tail = b.empty() ? 0 : rng_.Index(b.size());
  program->calls.resize(head);
  for (size_t i = tail; i < b.size() && program->calls.size() < kWireMaxCalls - 4; ++i) {
    program->calls.push_back(b[i]);
  }
  FixupRefs(program);
  if (program->calls.empty()) {
    *program = Generate();
  }
}

void Generator::NotifyNewCoverage(const Program& program) {
  // Decay everyone slightly, then credit the participants.
  for (uint64_t& credit : cov_credit_) {
    credit -= credit / 16;
  }
  for (const ProgCall& call : program.calls) {
    size_t slot = spec_to_slot_[call.spec_index];
    if (slot != SIZE_MAX) {
      cov_credit_[slot] = std::min(cov_credit_[slot] + kCovCreditBoost, kCovCreditCap);
    }
  }
}

}  // namespace fuzz
}  // namespace eof
