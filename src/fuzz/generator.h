// Spec-driven program generation and mutation (§4.5): builds API call sequences whose
// resource dependencies are satisfied by construction (producers inserted ahead of
// consumers), scores call selection by resource adjacency and recent-coverage credit, and
// mutates corpus seeds by argument perturbation, call insertion/removal/duplication,
// tail appends, and cross-seed splicing.

#ifndef SRC_FUZZ_GENERATOR_H_
#define SRC_FUZZ_GENERATOR_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fuzz/byte_mutator.h"
#include "src/fuzz/program.h"
#include "src/spec/compiler.h"

namespace eof {
namespace fuzz {

struct GeneratorOptions {
  size_t max_calls = 12;

  // Global cap on buffer/string argument lengths; 0 = per-spec maxima. Baseline spec sets
  // (Tardis-style) ship with conservative fixed-size buffers — modelled as a 48-byte cap.
  uint64_t max_buffer_len = 0;

  // Use extended-tier calls and flag values (the LLM-mined material).
  bool use_extended = true;

  // Restrict generation to these subsystems (Table 4 confines EOF to http+json). Empty =
  // all subsystems.
  std::vector<std::string> allowed_subsystems;

  // Probability (per mille) of emitting an out-of-range scalar (fuzzers probe beyond
  // declared constraints occasionally).
  uint32_t wild_scalar_per_mille = 25;
};

class Generator {
 public:
  Generator(const spec::CompiledSpecs& specs, GeneratorOptions options, uint64_t seed);

  // Fresh random program.
  Program Generate();

  // Mutated copy of `seed` (1..3 stacked operations; refs stay valid).
  Program Mutate(const Program& seed);

  // Head of `a` + tail of `b`, refs rewired.
  Program Splice(const Program& a, const Program& b);

  // Coverage credit: boosts selection weight of every call in `program` (decays as other
  // calls earn credit). This is the "recent coverage" part of the paper's adjacency
  // scoring.
  void NotifyNewCoverage(const Program& program);

  Rng& rng() { return rng_; }
  const spec::CompiledSpecs& specs() const { return specs_; }

 private:
  // Appends a call of `spec_index`, generating args; producers for unmet resource needs
  // are prepended (bounded recursion). Returns the call's index.
  size_t EmitCall(Program* program, size_t spec_index, int depth);

  ProgArg GenArg(Program* program, const ArgSpec& arg, const std::vector<ProgArg>& so_far,
                 int depth);

  // Index of an existing call producing `kind` before `before` (prefer recent), or -1.
  int FindProducer(const Program& program, const std::string& kind, size_t before);

  // A spec index that produces `kind`, or SIZE_MAX.
  size_t ProducerSpec(const std::string& kind);

  // Weighted choice over eligible calls; `after` (optional) biases toward consumers of
  // what the previous call produced (adjacency).
  size_t PickSpec(const Program& program);

  // Repairs kResult refs after structural edits (remove/reorder): dangling refs rebind to
  // a valid earlier producer or degrade to scalar 0.
  void FixupRefs(Program* program);

  void MutateArgOp(Program* program);
  void InsertCallOp(Program* program);
  void RemoveCallOp(Program* program);
  void DuplicateCallOp(Program* program);
  void AppendCallsOp(Program* program);

  uint64_t BufferCap(const ArgSpec& arg) const;

  const spec::CompiledSpecs& specs_;
  GeneratorOptions options_;
  Rng rng_;
  ByteMutator byte_mutator_;

  std::vector<size_t> eligible_;
  std::vector<uint64_t> weights_;      // parallel to eligible_
  std::vector<uint64_t> cov_credit_;   // parallel to eligible_
  std::vector<size_t> spec_to_slot_;   // specs index -> eligible slot (SIZE_MAX if not)
};

}  // namespace fuzz
}  // namespace eof

#endif  // SRC_FUZZ_GENERATOR_H_
