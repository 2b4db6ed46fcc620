// Unit + property tests for the fuzzing engine: wire round-trips and havoc, generator
// invariants (refs always valid, constraints honoured, option fences), mutation
// invariants across sweeps, corpus scheduling, and the byte mutator.

#include <gtest/gtest.h>

#include "src/agent/wire.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/core/scheduler.h"
#include "src/fuzz/byte_mutator.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/trimmer.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/spec/spec_miner.h"
#include "tests/fleet/decoder_harness.h"

namespace eof {
namespace fuzz {
namespace {

const spec::CompiledSpecs& SpecsFor(const std::string& os_name) {
  static auto* cache = new std::map<std::string, spec::CompiledSpecs>();
  auto it = cache->find(os_name);
  if (it == cache->end()) {
    (void)RegisterAllOses();
    auto os = OsRegistry::Instance().Find(os_name).value().factory();
    auto mined = spec::MineValidatedSpecs(os->registry());
    it = cache->emplace(os_name, std::move(mined.value().specs)).first;
  }
  return it->second;
}

// A program as raw api ids and ProgArgs: what the reference codec below writes and reads.
struct RefCall {
  uint32_t api_id = 0;
  std::vector<ProgArg> args;
};

// The reference encoder, written byte by byte from the format comment of
// src/agent/wire.h: the yardstick the production encoder is compared against.
std::vector<uint8_t> RefEncode(const std::vector<RefCall>& calls) {
  std::vector<uint8_t> out;
  auto le = [&out](uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  le(0x45304650, 4);  // magic "E0FP"
  le(calls.size(), 2);
  for (const RefCall& call : calls) {
    le(call.api_id, 4);
    le(call.args.size(), 1);
    for (const ProgArg& arg : call.args) {
      switch (arg.kind) {
        case ProgArg::Kind::kScalar:
          le(0, 1);
          le(arg.scalar, 8);
          break;
        case ProgArg::Kind::kResult:
          le(1, 1);
          le(static_cast<uint64_t>(arg.ref), 2);
          break;
        case ProgArg::Kind::kBytes:
          le(2, 1);
          le(arg.bytes.size(), 4);
          out.insert(out.end(), arg.bytes.begin(), arg.bytes.end());
          break;
      }
    }
  }
  return out;
}

// The calls of `program` with their api ids bound through `specs`.
std::vector<RefCall> RefCalls(const Program& program, const spec::CompiledSpecs& specs) {
  std::vector<RefCall> calls;
  for (const ProgCall& call : program.calls) {
    calls.push_back(RefCall{specs.calls[call.spec_index].api_id, call.args});
  }
  return calls;
}

// Reads back, by the same format comment, the calls of a program that ValidateProgram
// accepted with `offsets`.
std::vector<RefCall> RefReadBack(const std::vector<uint8_t>& bytes,
                                 const std::vector<uint32_t>& offsets) {
  std::vector<RefCall> calls;
  for (uint32_t offset : offsets) {
    ByteReader reader(bytes.data() + offset, bytes.size() - offset);
    RefCall call;
    call.api_id = reader.GetU32();
    call.args.resize(reader.GetU8());
    for (ProgArg& arg : call.args) {
      switch (reader.GetU8()) {
        case 0:
          arg = ProgArg::Scalar(reader.GetU64());
          break;
        case 1:
          arg = ProgArg::Result(reader.GetU16());
          break;
        default: {
          std::vector<uint8_t> data(reader.GetU32());
          reader.GetBytes(data.data(), data.size());
          arg = ProgArg::Bytes(std::move(data));
          break;
        }
      }
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

// The golden program every wire havoc stream below mutates.
std::vector<uint8_t> HavocGolden() {
  return RefEncode({{3, {ProgArg::Scalar(0xdeadbeefcafef00dULL), ProgArg::Bytes({1, 2, 3})}},
                    {9, {ProgArg::Result(0), ProgArg::Scalar(7)}}});
}

// Pins the agent's verdict on every input of the 100k havoc stream of
// DecoderSurvivesMutatedInput (same golden, same seed): the AgentError and, for an
// accepted input, its call count and its calls re-encoded, folded into one hash.
TEST(WireTest, HavocVerdictsArePinned) {
  const std::vector<uint8_t> golden = HavocGolden();
  ByteMutator mutator(golden.size() * 2);
  Rng rng(20261113);
  std::vector<uint32_t> offsets;
  uint64_t hash = kFnvOffsetBasis;
  for (int i = 0; i < 100000; ++i) {
    const std::vector<uint8_t> input = mutator.Mutate(golden, rng);
    const AgentError error = ValidateProgram(input.data(), input.size(), &offsets);
    hash = HashCombine(hash, static_cast<uint64_t>(error));
    if (error == AgentError::kNone) {
      hash = HashCombine(hash, offsets.size());
      const std::vector<uint8_t> reencoded = RefEncode(RefReadBack(input, offsets));
      hash = Fnv1aBytes(reencoded.data(), reencoded.size(), hash);
    }
  }
  EXPECT_EQ(hash, 0x956d8d1e9aa47449ULL);
}

// `calls` through the production encoder.
std::vector<uint8_t> WriteProgram(const std::vector<RefCall>& calls) {
  std::vector<uint8_t> out;
  WireWriter writer(&out);
  for (const RefCall& call : calls) {
    WriteCall(&writer, call.api_id, call.args);
  }
  return out;
}

TEST(WireTest, RoundTrip) {
  const std::vector<uint8_t> encoded =
      WriteProgram({{3, {ProgArg::Scalar(0xdeadbeefcafef00dULL), ProgArg::Bytes({1, 2, 3})}},
                    {9, {ProgArg::Result(0)}}});
  std::vector<uint32_t> offsets;
  ASSERT_EQ(ValidateProgram(encoded.data(), encoded.size(), &offsets), AgentError::kNone);
  const std::vector<RefCall> decoded = RefReadBack(encoded, offsets);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].args[0].scalar, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(decoded[1].args[0].kind, ProgArg::Kind::kResult);
}

TEST(WireTest, RejectsForwardResultRefs) {
  const std::vector<uint8_t> encoded =
      WriteProgram({{1, {ProgArg::Result(0)}}});  // references itself
  std::vector<uint32_t> offsets;
  EXPECT_EQ(ValidateProgram(encoded.data(), encoded.size(), &offsets),
            AgentError::kBadResultRef);
}

// The agent checks whatever bytes the host left in its mailbox.
TEST(WireTest, DecoderSurvivesMutatedInput) {
  auto round_trip = [](const std::vector<uint8_t>& bytes) -> Result<std::vector<uint8_t>> {
    std::vector<uint32_t> offsets;
    if (ValidateProgram(bytes.data(), bytes.size(), &offsets) != AgentError::kNone) {
      return DataLossError("agent rejected the program");
    }
    return WriteProgram(RefReadBack(bytes, offsets));
  };
  ExpectDecoderSurvivesHavoc(HavocGolden(), round_trip, 20261113);
}

// The agent validates every mailbox into one reused offsets vector. Over the havoc
// stream of DecoderSurvivesMutatedInput (same golden, same seed), a validate into the
// reused vector must report exactly what a fresh validate reports: the same error and
// the same call offsets, with nothing left over from earlier inputs.
TEST(WireTest, ReusedDecodeMatchesFreshDecode) {
  const std::vector<uint8_t> golden = HavocGolden();
  ByteMutator mutator(golden.size() * 2);
  Rng rng(20261113);
  std::vector<uint32_t> reused;
  int failed = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::vector<uint8_t> input = mutator.Mutate(golden, rng);
    std::vector<uint32_t> fresh;
    const AgentError expected = ValidateProgram(input.data(), input.size(), &fresh);
    ASSERT_EQ(ValidateProgram(input.data(), input.size(), &reused), expected) << "input " << i;
    ASSERT_EQ(reused, fresh) << "input " << i;
    failed += expected != AgentError::kNone ? 1 : 0;
  }
  EXPECT_GT(failed, 0);

  // A longer valid program, then one that fails inside its second call's args: the
  // reused validate keeps only the first call, whose arg reads back as a scalar with
  // none of the bytes the longer program had there.
  const RefCall bytes_call{5, {ProgArg::Bytes({9, 9, 9, 9}), ProgArg::Scalar(1)}};
  const std::vector<uint8_t> longer_bytes =
      WriteProgram({bytes_call, bytes_call, bytes_call, bytes_call});
  ASSERT_EQ(ValidateProgram(longer_bytes.data(), longer_bytes.size(), &reused),
            AgentError::kNone);
  const std::vector<uint8_t> failing_bytes =
      WriteProgram({{6, {ProgArg::Scalar(2)}},
                    {7, {ProgArg::Scalar(3), ProgArg::Result(1)}}});  // refers to itself
  std::vector<uint32_t> fresh;
  ASSERT_EQ(ValidateProgram(failing_bytes.data(), failing_bytes.size(), &fresh),
            AgentError::kBadResultRef);
  ASSERT_EQ(ValidateProgram(failing_bytes.data(), failing_bytes.size(), &reused),
            AgentError::kBadResultRef);
  EXPECT_EQ(reused, fresh);
  ASSERT_EQ(reused.size(), 1u);
  EXPECT_TRUE(RefReadBack(failing_bytes, reused)[0].args[0].bytes.empty());
}

TEST(WireTest, RejectsBadMagicAndTruncation) {
  std::vector<uint32_t> offsets;
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ValidateProgram(junk.data(), junk.size(), &offsets), AgentError::kBadMagic);

  const std::vector<uint8_t> encoded = WriteProgram({{1, {ProgArg::Bytes({1, 2, 3, 4})}}});
  for (size_t cut = 5; cut < encoded.size(); cut += 3) {
    AgentError error = ValidateProgram(encoded.data(), cut, &offsets);
    EXPECT_NE(error, AgentError::kNone) << "truncation at " << cut << " accepted";
  }
}

// The mailbox trim, by the reference encoder: drop the last call until the encoding fits.
bool RefTrim(const spec::CompiledSpecs& specs, Program* program,
                   std::vector<uint8_t>* encoded) {
  *encoded = RefEncode(RefCalls(*program, specs));
  if (encoded->size() <= kMailboxMaxBytes) {
    return true;
  }
  while (!program->calls.empty() && encoded->size() > kMailboxMaxBytes) {
    program->calls.pop_back();
    *encoded = RefEncode(RefCalls(*program, specs));
  }
  return !program->calls.empty();
}

TEST(ProgramEncodeTest, GoldenEncoding) {
  spec::CompiledSpecs specs;
  specs.calls.resize(2);
  specs.calls[0].api_id = 7;
  specs.calls[1].api_id = 0x0102;
  Program program;
  program.calls.push_back(
      ProgCall{0, {ProgArg::Scalar(0x1122334455667788ULL), ProgArg::Bytes({0xaa, 0xbb})}});
  program.calls.push_back(ProgCall{1, {ProgArg::Result(0)}});
  std::vector<uint8_t> encoded = {1, 2, 3};  // overwritten, not appended to
  program.Encode(specs, &encoded);
  EXPECT_EQ(BytesToHex(encoded.data(), encoded.size()),
            "50463045" "0200"            // magic "E0FP", 2 calls
            "07000000" "02"              // api 7, 2 args
            "00" "8877665544332211"      // scalar
            "02" "02000000" "aabb"       // 2 bytes
            "02010000" "01"              // api 0x0102, 1 arg
            "01" "0000");                // result of call 0
  EXPECT_EQ(encoded, RefEncode(RefCalls(program, specs)));
}

class ProgramEncodeDifferential : public ::testing::TestWithParam<const char*> {};

// Generated, mutated and spliced programs encode to the reference encoder's bytes,
// through one reused buffer as the campaign loop encodes them.
TEST_P(ProgramEncodeDifferential, MatchesReferenceEncoderBytes) {
  const spec::CompiledSpecs& specs = SpecsFor(GetParam());
  Generator generator(specs, GeneratorOptions{}, 4242);
  std::vector<uint8_t> encoded;
  Program previous = generator.Generate();
  for (int i = 0; i < 10000; ++i) {
    Program program;
    switch (i % 3) {
      case 0:
        program = generator.Generate();
        break;
      case 1:
        program = previous;
        generator.MutateInPlace(&program);
        break;
      default: {
        const Program tail = generator.Generate();
        program = previous;
        generator.SpliceInPlace(&program, tail);
        break;
      }
    }
    program.Encode(specs, &encoded);
    ASSERT_EQ(encoded, RefEncode(RefCalls(program, specs)))
        << "program " << i << ":\n" << program.Format(specs);
    previous = std::move(program);
  }
}

// Programs too large for the mailbox: EncodeForMailbox keeps exactly the calls the
// reference trim keeps, and encodes them to the same bytes.
TEST_P(ProgramEncodeDifferential, OversizedProgramsTrimToTheSameCalls) {
  const spec::CompiledSpecs& specs = SpecsFor(GetParam());
  GeneratorOptions options;
  options.max_calls = 48;
  Generator generator(specs, options, 777);
  std::vector<uint8_t> encoded;
  int trimmed = 0;
  for (int i = 0; i < 2000 && trimmed < 50; ++i) {
    Program program = generator.Generate();
    size_t filled = 0;
    for (ProgCall& call : program.calls) {
      for (ProgArg& arg : call.args) {
        if (arg.kind == ProgArg::Kind::kBytes) {
          arg.bytes.assign(1200 + (filled * 211) % 848, static_cast<uint8_t>(filled));
          ++filled;
        }
      }
    }
    Program expected = program;
    std::vector<uint8_t> expected_bytes;
    const bool expected_fits = RefTrim(specs, &expected, &expected_bytes);
    if (expected.calls.size() == program.calls.size()) {
      continue;  // fitted untrimmed
    }
    ++trimmed;
    ASSERT_EQ(EncodeForMailbox(specs, &program, &encoded), expected_fits);
    ASSERT_EQ(program.calls.size(), expected.calls.size());
    ASSERT_EQ(program.Hash(), expected.Hash());
    if (expected_fits) {
      ASSERT_EQ(encoded, expected_bytes);
    }
  }
  EXPECT_EQ(trimmed, 50);
}

INSTANTIATE_TEST_SUITE_P(AllOses, ProgramEncodeDifferential,
                         ::testing::Values("freertos", "rtthread", "nuttx", "zephyr",
                                           "pokos"));

// Property sweep: every generated and mutated program keeps refs valid and arity right.
class GeneratorProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorProperty, GeneratedProgramsAreWellFormed) {
  const spec::CompiledSpecs& specs = SpecsFor(GetParam());
  Generator generator(specs, GeneratorOptions{}, 1234);
  for (int i = 0; i < 300; ++i) {
    Program program = generator.Generate();
    ASSERT_FALSE(program.calls.empty());
    ASSERT_TRUE(program.RefsValid()) << program.Format(specs);
    for (const ProgCall& call : program.calls) {
      ASSERT_LT(call.spec_index, specs.calls.size());
      ASSERT_EQ(call.args.size(), specs.calls[call.spec_index].args.size());
    }
  }
}

TEST_P(GeneratorProperty, MutationPreservesInvariants) {
  const spec::CompiledSpecs& specs = SpecsFor(GetParam());
  Generator generator(specs, GeneratorOptions{}, 99);
  Program seed = generator.Generate();
  for (int i = 0; i < 400; ++i) {
    Program mutated = seed;
    generator.MutateInPlace(&mutated);
    ASSERT_TRUE(mutated.RefsValid()) << mutated.Format(specs);
    ASSERT_FALSE(mutated.calls.empty());
    for (const ProgCall& call : mutated.calls) {
      ASSERT_EQ(call.args.size(), specs.calls[call.spec_index].args.size());
    }
    if (i % 10 == 0) {
      seed = mutated;  // walk the mutation chain
    }
  }
}

TEST_P(GeneratorProperty, SpliceKeepsRefsValid) {
  const spec::CompiledSpecs& specs = SpecsFor(GetParam());
  Generator generator(specs, GeneratorOptions{}, 77);
  for (int i = 0; i < 200; ++i) {
    Program a = generator.Generate();
    Program b = generator.Generate();
    Program spliced = a;
    generator.SpliceInPlace(&spliced, b);
    ASSERT_TRUE(spliced.RefsValid()) << spliced.Format(specs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOses, GeneratorProperty,
                         ::testing::Values("freertos", "rtthread", "nuttx", "zephyr",
                                           "pokos"));

TEST(GeneratorOptionsTest, SubsystemFenceHolds) {
  const spec::CompiledSpecs& specs = SpecsFor("freertos");
  GeneratorOptions options;
  options.allowed_subsystems = {"json"};
  Generator generator(specs, options, 5);
  for (int i = 0; i < 100; ++i) {
    Program program = generator.Generate();
    for (const ProgCall& call : program.calls) {
      EXPECT_EQ(specs.calls[call.spec_index].subsystem, "json");
    }
  }
}

TEST(GeneratorOptionsTest, BaseTierExcludesExtendedCalls) {
  const spec::CompiledSpecs& specs = SpecsFor("rtthread");
  GeneratorOptions options;
  options.use_extended = false;
  Generator generator(specs, options, 5);
  for (int i = 0; i < 100; ++i) {
    Program program = generator.Generate();
    for (const ProgCall& call : program.calls) {
      const spec::CompiledCall& decl = specs.calls[call.spec_index];
      EXPECT_FALSE(decl.extended || decl.is_pseudo) << decl.name;
    }
  }
}

TEST(GeneratorOptionsTest, BufferCapRespected) {
  const spec::CompiledSpecs& specs = SpecsFor("freertos");
  GeneratorOptions options;
  options.max_buffer_len = 48;
  options.wild_scalar_per_mille = 0;
  Generator generator(specs, options, 5);
  for (int i = 0; i < 200; ++i) {
    Program program = generator.Generate();
    for (const ProgCall& call : program.calls) {
      const spec::CompiledCall& decl = specs.calls[call.spec_index];
      for (size_t a = 0; a < call.args.size(); ++a) {
        if (decl.args[a].kind == ArgKind::kBuffer) {
          EXPECT_LE(call.args[a].bytes.size(), 48u);
        }
      }
    }
  }
}

// A program shaped like: c0 produces, c1 noise, c2 consumes c0, c3 noise, c4
// consumes c2. Owner call 4 must pull in its full producer chain {0, 2, 4}.
Program ChainProgram() {
  Program program;
  for (int i = 0; i < 5; ++i) {
    ProgCall call;
    call.spec_index = static_cast<size_t>(i);
    if (i == 2) {
      call.args = {ProgArg::Result(0), ProgArg::Scalar(7)};
    } else if (i == 4) {
      call.args = {ProgArg::Result(2)};
    } else {
      call.args = {ProgArg::Scalar(static_cast<uint64_t>(i))};
    }
    program.calls.push_back(call);
  }
  return program;
}

TEST(TrimmerTest, KeepsOwnersAndTransitiveProducers) {
  Program program = ChainProgram();
  TrimStats stats;
  Program trimmed = TrimToCalls(program, {4}, &stats);
  ASSERT_EQ(trimmed.calls.size(), 3u);
  EXPECT_EQ(stats.kept_calls, 3u);
  EXPECT_EQ(stats.removed_calls, 2u);
  // Surviving calls in original order: 0, 2, 4 with refs remapped to 0, 1.
  EXPECT_EQ(trimmed.calls[0].spec_index, 0u);
  EXPECT_EQ(trimmed.calls[1].spec_index, 2u);
  EXPECT_EQ(trimmed.calls[2].spec_index, 4u);
  EXPECT_EQ(trimmed.calls[1].args[0].ref, 0);
  EXPECT_EQ(trimmed.calls[2].args[0].ref, 1);
  EXPECT_TRUE(trimmed.RefsValid());
}

TEST(TrimmerTest, EmptyOrOutOfRangeKeepSetReturnsProgramUnchanged) {
  Program program = ChainProgram();
  TrimStats stats;
  // A trim that keeps nothing explains nothing: hand the program back whole.
  Program trimmed = TrimToCalls(program, {}, &stats);
  EXPECT_EQ(trimmed.calls.size(), program.calls.size());
  EXPECT_EQ(stats.kept_calls, 5u);
  EXPECT_EQ(stats.removed_calls, 0u);
  // Out-of-range owners (a scribbled call index from the target) are ignored.
  trimmed = TrimToCalls(program, {99}, &stats);
  EXPECT_EQ(trimmed.calls.size(), program.calls.size());
  EXPECT_EQ(stats.removed_calls, 0u);
}

TEST(TrimmerTest, MiddleOwnerDropsUnreferencedTail) {
  Program program = ChainProgram();
  TrimStats stats;
  Program trimmed = TrimToCalls(program, {2, 2}, &stats);  // duplicate owners fold
  ASSERT_EQ(trimmed.calls.size(), 2u);
  EXPECT_EQ(trimmed.calls[0].spec_index, 0u);
  EXPECT_EQ(trimmed.calls[1].spec_index, 2u);
  EXPECT_EQ(trimmed.calls[1].args[0].ref, 0);
  EXPECT_EQ(stats.removed_calls, 3u);
  EXPECT_TRUE(trimmed.RefsValid());
}

TEST(CorpusTest, DedupAndScheduling) {
  Corpus corpus;
  Program program;
  program.calls.push_back(ProgCall{0, {ProgArg::Scalar(1)}});
  EXPECT_TRUE(corpus.Add(program, 5));
  EXPECT_FALSE(corpus.Add(program, 5));  // duplicate hash

  Program other;
  other.calls.push_back(ProgCall{0, {ProgArg::Scalar(2)}});
  EXPECT_TRUE(corpus.Add(other, 50));

  Rng rng(1);
  int picked_high = 0;
  for (int i = 0; i < 2000; ++i) {
    Program seed;
    ASSERT_TRUE(corpus.PickSeedCopy(rng, &seed));
    if (seed.calls[0].args[0].scalar == 2) {
      ++picked_high;
    }
  }
  EXPECT_GT(picked_high, 1000);  // higher-value seed scheduled more
}

TEST(CorpusTest, TrimKeepsHighValueEntries) {
  Corpus corpus(30);
  for (uint64_t i = 0; i < 60; ++i) {
    Program program;
    program.calls.push_back(ProgCall{0, {ProgArg::Scalar(i)}});
    corpus.Add(std::move(program), i);  // later entries more valuable
  }
  EXPECT_LE(corpus.size(), 30u);
  uint64_t high_value = 0;
  for (const CorpusEntry& entry : corpus.entries()) {
    if (entry.new_edges >= 30) {
      ++high_value;
    }
  }
  EXPECT_GT(high_value, corpus.size() / 2);
}

TEST(ByteMutatorTest, BoundsAndVariety) {
  ByteMutator mutator(64);
  Rng rng(42);
  std::vector<uint8_t> seed = {1, 2, 3, 4, 5, 6, 7, 8};
  int changed = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> mutated = mutator.Mutate(seed, rng);
    ASSERT_LE(mutated.size(), 64u);
    if (mutated != seed) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 250);
  std::vector<uint8_t> spliced = mutator.Splice(seed, {9, 9, 9, 9}, rng);
  EXPECT_LE(spliced.size(), 64u);
}

// Replays Mutate's opening draws: true when `seed` makes the first round delete all of
// a 2-byte buffer and the second round a byte edit (cases 0-3) of the empty result.
bool EmptiesThenEdits(uint64_t seed) {
  Rng rng(seed);
  uint64_t rounds = 1 + rng.Below(8);
  if (rounds < 2 || rng.Below(8) != 4) {
    return false;
  }
  if (rng.Index(2) != 0 || 1 + rng.Below(2) != 2) {
    return false;  // the deleted block must start at 0 and span both bytes
  }
  return rng.Below(8) < 4;
}

TEST(ByteMutatorTest, ByteEditOnEmptiedBufferSkipsTheAccess) {
  ByteMutator mutator(16);
  uint64_t seed = 0;
  while (!EmptiesThenEdits(seed)) {
    ++seed;
  }
  ASSERT_EQ(seed, 5u);
  // Before the guard this indexed the empty buffer (out of range; aborts under
  // _GLIBCXX_ASSERTIONS). Now the edit draws its values and touches nothing.
  Rng rng(seed);
  std::vector<uint8_t> out = mutator.Mutate({0xaa, 0xbb}, rng);
  EXPECT_TRUE(out.empty());
  // The draws still happened: the stream sits where the unguarded code left it.
  EXPECT_EQ(rng.Next(), 0x80feec1a8a64aa3fULL);
}

TEST(ByteMutatorTest, OutputsMatchThePreGuardMutator) {
  // Digest of 2048 (seed, input) mutations and the RNG word after each, recorded
  // from the mutator before the empty-buffer guard. The generator draws from this
  // mutator, so any drift here would move every campaign.
  ByteMutator mutator(16);
  uint64_t hash = kFnvOffsetBasis;
  for (uint64_t seed = 0; seed < 2048; ++seed) {
    Rng input_rng(seed ^ 0xabcULL);
    std::vector<uint8_t> input(1 + seed % 16);
    for (auto& byte : input) {
      byte = static_cast<uint8_t>(input_rng.Next());
    }
    Rng rng(seed);
    std::vector<uint8_t> out = mutator.Mutate(input, rng);
    hash = HashCombine(hash, out.size());
    hash = Fnv1aBytes(out.data(), out.size(), hash);
    hash = HashCombine(hash, rng.Next());
  }
  EXPECT_EQ(hash, 0xb001e97e2e59f10dULL);
  Rng rng(14);
  EXPECT_EQ(mutator.Mutate({0xaa, 0xbb}, rng), (std::vector<uint8_t>{0x56, 0x9b, 0x0e}));
  EXPECT_EQ(rng.Next(), 0x1f5d19479a66de80ULL);
}

TEST(ProgramTest, HashSensitivity) {
  Program a;
  a.calls.push_back(ProgCall{1, {ProgArg::Scalar(5)}});
  Program b = a;
  EXPECT_EQ(a.Hash(), b.Hash());
  b.calls[0].args[0].scalar = 6;
  EXPECT_NE(a.Hash(), b.Hash());
  b = a;
  b.calls[0].args[0] = ProgArg::Result(0);
  EXPECT_NE(a.Hash(), b.Hash());
}

}  // namespace
}  // namespace fuzz
}  // namespace eof
