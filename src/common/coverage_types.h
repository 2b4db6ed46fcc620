// The unit of attributed coverage: one coverage-ring entry as drained from the
// target. `edge` is the synthetic basic-block address the kernel reported;
// `call` is the index of the program call that was executing when the edge
// fired (the agent publishes it in the ring header before each call). Host-side
// consumers that only care about edges ignore `call`; the scheduler uses it to
// attribute fresh coverage to the owning call for trimming.

#ifndef SRC_COMMON_COVERAGE_TYPES_H_
#define SRC_COMMON_COVERAGE_TYPES_H_

#include <cstdint>

namespace eof {

struct CovHit {
  uint64_t edge = 0;
  uint32_t call = 0;

  friend bool operator==(const CovHit& a, const CovHit& b) {
    return a.edge == b.edge && a.call == b.call;
  }
  friend bool operator!=(const CovHit& a, const CovHit& b) { return !(a == b); }
};

}  // namespace eof

#endif  // SRC_COMMON_COVERAGE_TYPES_H_
