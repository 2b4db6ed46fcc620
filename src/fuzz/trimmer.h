// Edge-preserving program trimmer. Per-call coverage attribution tells the
// scheduler which calls of a program actually own its fresh edges; the trimmer
// minimizes the program to those calls plus the transitive closure of the
// result-producing calls they reference, so corpus seeds stay executable (refs
// remapped, producer chains intact) while dead tail/filler calls are dropped.
// This is the syzkaller minimization lesson at attribution granularity: no
// re-execution bisection needed for the common case, one verification replay
// suffices (the `eof trim` subcommand does exactly that).

#ifndef SRC_FUZZ_TRIMMER_H_
#define SRC_FUZZ_TRIMMER_H_

#include <cstdint>
#include <vector>

#include "src/common/coverage_types.h"
#include "src/fuzz/program.h"

namespace eof {
namespace fuzz {

struct TrimStats {
  size_t kept_calls = 0;
  size_t removed_calls = 0;
};

// Returns a copy of `program` keeping only the calls whose indices appear in
// `owner_calls` plus every call they (transitively) take a kResult reference
// from, with refs remapped to the compacted indices. Out-of-range owner indices
// are ignored; an empty effective keep set returns the program unchanged (a
// trim that keeps nothing explains nothing). `stats`, when non-null, reports
// kept/removed counts for the returned program.
Program TrimToCalls(const Program& program, const std::vector<uint32_t>& owner_calls,
                    TrimStats* stats = nullptr);

// TrimToCalls with the owners read off a run's first-seen hits: each fresh hit's
// call owns that edge.
Program TrimToFreshHits(const Program& program, const std::vector<CovHit>& fresh_hits,
                        TrimStats* stats = nullptr);

}  // namespace fuzz
}  // namespace eof

#endif  // SRC_FUZZ_TRIMMER_H_
