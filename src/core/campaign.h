// Campaign repetition and aggregation: the evaluation repeats every experiment 5 times
// (§5.1); these helpers run the repetitions with distinct seeds and aggregate coverage
// series (mean/min/max bands for Figures 7/8) and bug sets (union across runs, Table 2).

#ifndef SRC_CORE_CAMPAIGN_H_
#define SRC_CORE_CAMPAIGN_H_

#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/fuzzer.h"

namespace eof {

struct SeriesBand {
  std::vector<VirtualTime> time;
  std::vector<double> mean;
  std::vector<double> min;
  std::vector<double> max;
};

struct RepeatedResult {
  std::vector<CampaignResult> runs;

  // Mean of final coverage across runs (the "average number of branches" of Tables 3/4).
  double MeanFinalCoverage() const;

  // Union of catalog bug ids found in any run.
  std::set<int> UnionBugs() const;

  // Aggregated coverage-over-time band. Runs whose series lengths differ are
  // truncated to the shortest series (point i is only aggregated when every run
  // has a point i).
  SeriesBand Band() const;

  uint64_t TotalExecs() const;
};

// Seed for repetition `rep` of a campaign seeded with base_seed: FNV-derived so the
// repetitions of nearby base seeds never share a stream (an additive stride like
// base + rep*K collides base b, rep r with base b+K, rep r-1).
uint64_t RepetitionSeed(uint64_t base_seed, int rep);

// Runs `repetitions` campaigns of the EOF engine with seeds RepetitionSeed(base.seed, 0..).
// `parallelism` > 1 runs that many repetitions concurrently (each on its own board);
// results are identical to the serial order regardless of parallelism.
Result<RepeatedResult> RunRepeated(const FuzzerConfig& base, int repetitions,
                                   int parallelism = 1);

// The paper's campaigns run 24 hours; benches scale that down via the EOF_BENCH_SCALE
// environment variable, a positive integer (virtual budget = 24 h / scale; default
// scale 8 -> 3 virtual hours). Anything else exits the process with status 2 and a
// message naming the value. Set EOF_BENCH_SCALE=1 for full-length runs.
VirtualDuration ScaledCampaignBudget();

// Scaled repetition count, so quick runs stay quick: 5 at scale <= 2, 3 at
// scale <= 12 (the default 8), 2 beyond.
int ScaledRepetitions();

}  // namespace eof

#endif  // SRC_CORE_CAMPAIGN_H_
