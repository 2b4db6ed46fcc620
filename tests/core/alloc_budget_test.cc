// Heap allocations per exec in a steady-state campaign. This binary replaces the
// global operator new with a counting one, so it holds no other test: every
// allocation any layer makes while a campaign runs is counted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eof {
namespace {

// Allocations one fixed-seed, one-board rtthread reflash campaign (the hostbench
// crash_reflash shape) makes from set-up to result, capped at `max_execs`.
uint64_t CampaignAllocations(uint64_t max_execs) {
  (void)RegisterAllOses();
  FuzzerConfig config;
  config.os_name = "rtthread";
  config.seed = 1000;
  config.restore_mode = RestoreMode::kReflash;
  config.max_execs = max_execs;
  config.budget = 10000 * kVirtualHour;  // the exec cap ends the campaign
  config.sample_points = 12;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  Result<CampaignResult> result = EofFuzzer(config).Run();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ok() ? result->execs : 0, max_execs);
  return after - before;
}

// Set-up costs the same in both campaigns, so the difference is the steady-state
// loop: 500 execs of picking, mutating, encoding, executing, draining and merging.
// Before the exec loop reused its buffers it made 184.1 allocations per exec here
// (92,058 over the 500 execs, Release build); the bound is 40% of that.
TEST(AllocBudgetTest, SteadyStateExecAllocatesAtMostFortyPercentOfParent) {
  (void)CampaignAllocations(100);  // process-wide one-time set-up (API tables, OS registry)
  const uint64_t short_run = CampaignAllocations(100);
  const uint64_t long_run = CampaignAllocations(600);
  ASSERT_GT(long_run, short_run);
  const double per_exec = static_cast<double>(long_run - short_run) / 500.0;
  RecordProperty("allocations_per_exec", std::to_string(per_exec));
  EXPECT_LE(per_exec, 0.4 * 184.1) << (long_run - short_run) << " allocations over 500 execs";
}

}  // namespace
}  // namespace eof
