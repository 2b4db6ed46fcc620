// SanCov-style coverage instrumentation for the simulated kernels (§4.5.1).
//
// Kernel code marks branch sites with EOF_COV(ctx); each site gets a stable 64-bit ID from
// (module, file basename, line). The basename (__FILE_NAME__), not the path, so IDs and
// every campaign result do not depend on the checkout directory; no two instrumented .cc
// files may share a basename (tests/kernel/cov_basename_test.sh).
//
// When the image was built with instrumentation covering the site's module, the hook burns
// extra cycles (the inserted callback) and appends the site's synthetic basic-block address
// to a coverage ring in target RAM, which the host drains over the debug port. When the ring fills, the agent pauses at _kcmp_buf_full so the host
// can drain and reset it — exactly the Figure 5 flow.
//
// Whether or not instrumentation is compiled in, executing a site reports its basic-block
// address to the board, so GDBFuzz-style hardware breakpoints see hits on uninstrumented
// images.

#ifndef SRC_KERNEL_COVERAGE_H_
#define SRC_KERNEL_COVERAGE_H_

#include <cstdint>

#include "src/common/hash.h"

namespace eof {

struct EdgeSite {
  const char* module;
  const char* file;
  int line;
  uint64_t id;  // stable across runs and checkouts: hash of (module, file basename, line)
};

constexpr EdgeSite MakeEdgeSite(const char* module, const char* file, int line) {
  uint64_t id = Fnv1a(module);
  id = Fnv1a(file, id);
  id = HashCombine(id, static_cast<uint64_t>(line));
  return EdgeSite{module, file, line, id};
}

// Extra core cycles burnt per instrumented edge (the __sanitizer_cov_trace_* callback plus
// the write_comp_data store, amortized over the real code's much denser edge population).
// Calibrated against kApiBaseCycles (src/kernel/costs.h) so whole-image instrumentation
// lands in the ~15-30% execution-overhead band the paper reports (§5.5.2).
inline constexpr uint64_t kCovCallbackCycles = 450;

// Code-size cost per instrumented site: call + compare + store sequences.
inline constexpr uint64_t kCovBytesPerSite = 18;

// Bucketed sites expand one syntactic site into several runtime edges, keyed by a bounded
// value class (size class, fill level, object count...). This mirrors how real compiled
// kernels expose many more edges than our hand-instrumented branches: unrolled loops,
// inlined memcpy size ladders, per-state dispatch rows. Deep buckets need real state
// buildup, which is exactly the long tail that keeps 24-hour coverage curves growing.
inline constexpr uint64_t kMaxCovBuckets = 24;

// log2-style size class in [0, kMaxCovBuckets): the canonical bucket for byte counts.
constexpr uint64_t CovSizeClass(uint64_t value) {
  uint64_t bucket = 0;
  while (value > 1 && bucket < kMaxCovBuckets - 1) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

// Declares the coverage module for the current file. Place inside namespace scope of a .cc.
#define EOF_COV_MODULE(name) static constexpr const char kCovModule[] = name

// Records one edge execution against `ctx` (a KernelContext).
#define EOF_COV(ctx)                                                                     \
  do {                                                                                   \
    static constexpr ::eof::EdgeSite eof_cov_site =                                      \
        ::eof::MakeEdgeSite(kCovModule, __FILE_NAME__, __LINE__);                        \
    (ctx).Cov(eof_cov_site);                                                             \
  } while (false)

// Records the (site, bucket) edge; bucket is clamped to kMaxCovBuckets.
#define EOF_COV_BUCKET(ctx, bucket)                                                      \
  do {                                                                                   \
    static constexpr ::eof::EdgeSite eof_cov_site =                                      \
        ::eof::MakeEdgeSite(kCovModule, __FILE_NAME__, __LINE__);                        \
    (ctx).CovBucket(eof_cov_site, static_cast<uint64_t>(bucket));                        \
  } while (false)

}  // namespace eof

#endif  // SRC_KERNEL_COVERAGE_H_
