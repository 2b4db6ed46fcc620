// Unit + property tests for the fuzzing engine: wire round-trips and havoc, generator
// invariants (refs always valid, constraints honoured, option fences), mutation
// invariants across sweeps, corpus scheduling, and the byte mutator.

#include <gtest/gtest.h>

#include "src/agent/wire.h"
#include "src/common/hash.h"
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

TEST(WireTest, RoundTrip) {
  WireProgram program;
  WireCall call;
  call.api_id = 3;
  call.args = {WireArg::Scalar(0xdeadbeefcafef00dULL), WireArg::Bytes({1, 2, 3})};
  program.calls.push_back(call);
  WireCall second;
  second.api_id = 9;
  second.args = {WireArg::ResultRef(0)};
  program.calls.push_back(second);

  std::vector<uint8_t> encoded = EncodeProgram(program);
  WireProgram decoded;
  ASSERT_EQ(DecodeProgram(encoded.data(), encoded.size(), &decoded), AgentError::kNone);
  ASSERT_EQ(decoded.calls.size(), 2u);
  EXPECT_EQ(decoded.calls[0].args[0].scalar, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(decoded.calls[1].args[0].kind, WireArgKind::kResultRef);
}

TEST(WireTest, RejectsForwardResultRefs) {
  WireProgram program;
  WireCall call;
  call.api_id = 1;
  call.args = {WireArg::ResultRef(0)};  // references itself
  program.calls.push_back(call);
  std::vector<uint8_t> encoded = EncodeProgram(program);
  WireProgram decoded;
  EXPECT_EQ(DecodeProgram(encoded.data(), encoded.size(), &decoded),
            AgentError::kBadResultRef);
}

// The agent decodes whatever bytes the host left in its mailbox.
TEST(WireTest, DecoderSurvivesMutatedInput) {
  WireProgram program;
  WireCall call;
  call.api_id = 3;
  call.args = {WireArg::Scalar(0xdeadbeefcafef00dULL), WireArg::Bytes({1, 2, 3})};
  program.calls.push_back(call);
  WireCall second;
  second.api_id = 9;
  second.args = {WireArg::ResultRef(0), WireArg::Scalar(7)};
  program.calls.push_back(second);
  auto round_trip = [](const std::vector<uint8_t>& bytes) -> Result<std::vector<uint8_t>> {
    WireProgram decoded;
    if (DecodeProgram(bytes.data(), bytes.size(), &decoded) != AgentError::kNone) {
      return DataLossError("agent rejected the program");
    }
    return EncodeProgram(decoded);
  };
  ExpectDecoderSurvivesHavoc(EncodeProgram(program), round_trip, 20261113);
}

TEST(WireTest, RejectsBadMagicAndTruncation) {
  WireProgram decoded;
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(DecodeProgram(junk.data(), junk.size(), &decoded), AgentError::kBadMagic);

  WireProgram program;
  WireCall call;
  call.api_id = 1;
  call.args = {WireArg::Bytes({1, 2, 3, 4})};
  program.calls.push_back(call);
  std::vector<uint8_t> encoded = EncodeProgram(program);
  for (size_t cut = 5; cut < encoded.size(); cut += 3) {
    AgentError error = DecodeProgram(encoded.data(), cut, &decoded);
    EXPECT_NE(error, AgentError::kNone) << "truncation at " << cut << " accepted";
  }
}

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
    Program mutated = generator.Mutate(seed);
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
    Program spliced = generator.Splice(a, b);
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
  EXPECT_TRUE(corpus.Seen(program));

  Program other;
  other.calls.push_back(ProgCall{0, {ProgArg::Scalar(2)}});
  EXPECT_TRUE(corpus.Add(other, 50));

  Rng rng(1);
  int picked_high = 0;
  for (int i = 0; i < 2000; ++i) {
    const Program* seed = corpus.PickSeed(rng);
    ASSERT_NE(seed, nullptr);
    if (seed->calls[0].args[0].scalar == 2) {
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
