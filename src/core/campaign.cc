#include "src/core/campaign.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/common/hash.h"

namespace eof {

double RepeatedResult::MeanFinalCoverage() const {
  if (runs.empty()) {
    return 0;
  }
  double total = 0;
  for (const CampaignResult& run : runs) {
    total += static_cast<double>(run.final_coverage);
  }
  return total / static_cast<double>(runs.size());
}

std::set<int> RepeatedResult::UnionBugs() const {
  std::set<int> bugs;
  for (const CampaignResult& run : runs) {
    for (const BugReport& bug : run.bugs) {
      if (bug.catalog_id != 0) {
        bugs.insert(bug.catalog_id);
      }
    }
  }
  return bugs;
}

SeriesBand RepeatedResult::Band() const {
  SeriesBand band;
  if (runs.empty()) {
    return band;
  }
  size_t points = runs[0].series.size();
  for (const CampaignResult& run : runs) {
    points = std::min(points, run.series.size());
  }
  for (size_t i = 0; i < points; ++i) {
    double sum = 0;
    double lo = static_cast<double>(runs[0].series[i].coverage);
    double hi = lo;
    for (const CampaignResult& run : runs) {
      double value = static_cast<double>(run.series[i].coverage);
      sum += value;
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    band.time.push_back(runs[0].series[i].time);
    band.mean.push_back(sum / static_cast<double>(runs.size()));
    band.min.push_back(lo);
    band.max.push_back(hi);
  }
  return band;
}

uint64_t RepeatedResult::TotalExecs() const {
  uint64_t total = 0;
  for (const CampaignResult& run : runs) {
    total += run.execs;
  }
  return total;
}

uint64_t RepetitionSeed(uint64_t base_seed, int rep) {
  // Stream ids offset past the farm's worker lanes so a repetition never shares a
  // derived stream with a worker of the same base seed.
  return DeriveSeedStream(base_seed, 0x5e9a0000ULL + static_cast<uint64_t>(rep));
}

Result<RepeatedResult> RunRepeated(const FuzzerConfig& base, int repetitions,
                                   int parallelism) {
  RepeatedResult repeated;
  if (repetitions <= 0) {
    return repeated;
  }
  repeated.runs.resize(static_cast<size_t>(repetitions));

  // Each repetition is an independent seeded campaign on its own simulated board, so
  // any number of threads reproduce the one-thread results run for run. A shared
  // counter hands out repetition indices.
  std::atomic<int> next_rep(0);
  std::vector<Status> statuses(static_cast<size_t>(repetitions), OkStatus());
  auto run_reps = [&]() {
    for (int rep = next_rep.fetch_add(1); rep < repetitions; rep = next_rep.fetch_add(1)) {
      FuzzerConfig config = base;
      config.seed = RepetitionSeed(base.seed, rep);
      EofFuzzer fuzzer(config);
      auto run = fuzzer.Run();
      if (run.ok()) {
        repeated.runs[static_cast<size_t>(rep)] = std::move(run).value();
      } else {
        statuses[static_cast<size_t>(rep)] = run.status();
      }
    }
  };
  // The calling thread is one of the `parallelism` workers, and the only one at
  // parallelism <= 1: a one-board campaign's host time depends on its thread.
  std::vector<std::thread> threads;
  for (int i = 1; i < parallelism && i < repetitions; ++i) {
    threads.emplace_back(run_reps);
  }
  run_reps();
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Status& status : statuses) {  // the lowest-index failing rep's status
    RETURN_IF_ERROR(status);
  }
  return repeated;
}

namespace {

uint64_t BenchScale() {
  const char* raw = getenv("EOF_BENCH_SCALE");
  if (raw == nullptr) {
    return 8;  // default: 3 virtual hours per campaign
  }
  // The whole value must be a positive decimal integer: a fraction or a typo that
  // parsed to something else would silently change the campaign length.
  const char* end = raw + std::strlen(raw);
  uint64_t value = 0;
  const auto [stop, error] = std::from_chars(raw, end, value);
  if (error != std::errc() || stop != end || value == 0) {
    fprintf(stderr, "EOF_BENCH_SCALE=\"%s\": expected a positive integer divisor of 24 virtual "
            "hours\n", raw);
    std::exit(2);
  }
  return value;
}

}  // namespace

VirtualDuration ScaledCampaignBudget() { return 24 * kVirtualHour / BenchScale(); }

int ScaledRepetitions() {
  uint64_t scale = BenchScale();
  if (scale <= 2) {
    return 5;
  }
  if (scale <= 12) {
    return 3;
  }
  return 2;
}

}  // namespace eof
