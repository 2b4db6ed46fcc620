// Differential proof of the double-buffered drain and campaign-level checks of
// the attribution modes.
//
// The overlapped drain is only admissible if it is indistinguishable from the
// stop-and-drain baseline everywhere except the clock: same inputs, same
// coverage, same corpus, same deduped bug table — at --jobs 1 and --jobs 4 —
// while folding the drain's round trip into the next continue. Trim-on-add
// changes the corpus on purpose, so for it the suite checks the contract
// instead: the trim counters populate, trims never lose coverage credit (the
// trimmed program is what was admitted), and `--trim=off` stays the
// deterministic default the rest of the suite pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/board_farm.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

// Bug #13 reproducer; seeds the corpus so differential bug tables are non-empty.
constexpr char kFlashCorruptingCrasher[] = "r0 = load_partitions(0x7, 0xf)";

class AttributionDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  // Capped on exec count, not virtual time: both drain modes run the exact same
  // input sequence even though the overlapped path burns less virtual time.
  static FuzzerConfig CappedConfig(bool overlapped_drain, uint64_t seed,
                                   uint64_t max_execs) {
    FuzzerConfig config;
    config.os_name = "freertos";
    config.overlapped_drain = overlapped_drain;
    config.seed = seed;
    config.budget = 24 * kVirtualHour;  // never the binding constraint
    config.max_execs = max_execs;
    config.sample_points = 8;
    config.seed_programs = {kFlashCorruptingCrasher};
    return config;
  }

  static void ExpectSameBugTable(const CampaignResult& plain,
                                 const CampaignResult& overlapped) {
    ASSERT_EQ(plain.bugs.size(), overlapped.bugs.size());
    for (size_t i = 0; i < plain.bugs.size(); ++i) {
      SCOPED_TRACE(plain.bugs[i].program_text);
      EXPECT_EQ(plain.bugs[i].catalog_id, overlapped.bugs[i].catalog_id);
      EXPECT_EQ(plain.bugs[i].detector, overlapped.bugs[i].detector);
      EXPECT_EQ(plain.bugs[i].kind, overlapped.bugs[i].kind);
      EXPECT_EQ(plain.bugs[i].excerpt, overlapped.bugs[i].excerpt);
      EXPECT_EQ(plain.bugs[i].program_text, overlapped.bugs[i].program_text);
      EXPECT_EQ(plain.bugs[i].first_exec, overlapped.bugs[i].first_exec);
      EXPECT_EQ(plain.bugs[i].board, overlapped.bugs[i].board);
      EXPECT_EQ(plain.bugs[i].seed_stream, overlapped.bugs[i].seed_stream);
      EXPECT_EQ(plain.bugs[i].coverage_delta, overlapped.bugs[i].coverage_delta);
    }
  }
};

TEST_F(AttributionDifferentialTest, OverlappedDrainBitMatchesPlainJobs1) {
  constexpr uint64_t kSeed = 11;
  constexpr uint64_t kExecs = 350;
  // The overlap only engages on mid-program ring-full pauses, so run on the
  // tiny-RAM board whose 192-entry ring overflows on ordinary programs.
  FuzzerConfig plain_config = CappedConfig(false, kSeed, kExecs);
  FuzzerConfig overlapped_config = CappedConfig(true, kSeed, kExecs);
  plain_config.board_name = "hifive1-revb";
  overlapped_config.board_name = "hifive1-revb";
  auto plain = EofFuzzer(plain_config).Run();
  auto overlapped = EofFuzzer(overlapped_config).Run();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(overlapped.ok()) << overlapped.status().ToString();

  // Identical campaign: same execs, same coverage, same corpus, same crash and
  // restore counts, same deduped bug table. Only the clock may differ.
  EXPECT_EQ(plain->execs, kExecs);
  EXPECT_EQ(overlapped->execs, kExecs);
  EXPECT_EQ(plain->final_coverage, overlapped->final_coverage);
  EXPECT_EQ(plain->corpus_size, overlapped->corpus_size);
  EXPECT_EQ(plain->crashes, overlapped->crashes);
  EXPECT_EQ(plain->stalls, overlapped->stalls);
  EXPECT_EQ(plain->timeouts, overlapped->timeouts);
  EXPECT_EQ(plain->restores, overlapped->restores);
  EXPECT_EQ(plain->rejected, overlapped->rejected);
  ASSERT_FALSE(overlapped->bugs.empty());  // the differential must prove something
  ExpectSameBugTable(*plain, *overlapped);

  // The overlapped campaign rode the banked ring and spent less virtual time.
  EXPECT_LT(overlapped->elapsed, plain->elapsed);
}

TEST_F(AttributionDifferentialTest, OverlappedDrainMatchesPlainJobs4) {
  constexpr uint64_t kSeed = 5;
  constexpr uint64_t kExecsPerWorker = 120;
  // Feedback off: each worker's input stream is then a pure function of its
  // seed, so farm results are interleaving-independent and the modes comparable.
  FuzzerConfig plain_config = CappedConfig(false, kSeed, kExecsPerWorker);
  FuzzerConfig overlapped_config = CappedConfig(true, kSeed, kExecsPerWorker);
  plain_config.coverage_feedback = false;
  overlapped_config.coverage_feedback = false;

  auto plain = BoardFarm(plain_config, /*jobs=*/4).Run();
  auto overlapped = BoardFarm(overlapped_config, /*jobs=*/4).Run();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(overlapped.ok()) << overlapped.status().ToString();

  EXPECT_EQ(plain->execs, 4 * kExecsPerWorker);
  EXPECT_EQ(overlapped->execs, 4 * kExecsPerWorker);
  EXPECT_EQ(plain->final_coverage, overlapped->final_coverage);
  EXPECT_EQ(plain->crashes, overlapped->crashes);
  EXPECT_EQ(plain->stalls, overlapped->stalls);
  EXPECT_EQ(plain->timeouts, overlapped->timeouts);
  EXPECT_EQ(plain->restores, overlapped->restores);

  // Bug identity is worker-timing-independent only as a set: first-sighting
  // attribution may land on a different worker across runs.
  auto ids = [](const CampaignResult& result) {
    std::vector<int> ids;
    for (const BugReport& bug : result.bugs) {
      ids.push_back(bug.catalog_id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids(*plain), ids(*overlapped));
}

TEST_F(AttributionDifferentialTest, TrimCampaignPopulatesAttribution) {
  FuzzerConfig config = CappedConfig(true, /*seed=*/23, /*max_execs=*/250);
  config.trim = true;
  auto result = EofFuzzer(config).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every admission runs the trimmer, so a campaign that found any coverage
  // records the calls the fresh edges attributed to.
  EXPECT_GT(result->final_coverage, 0u);
  EXPECT_GT(result->trim_kept_calls, 0u);
  // Attribution granularity keeps at least the owner calls; what it removed is
  // bounded by what it saw.
  EXPECT_GE(result->trim_kept_calls + result->trim_removed_calls,
            result->trim_kept_calls);
}

TEST_F(AttributionDifferentialTest, DefaultModeLeavesAttributionCountersZero) {
  // The determinism contract's other half: with --trim=off the scheduler still
  // attributes fresh edges to calls (the fleet delta log needs them) but never
  // trims an admission.
  auto result = EofFuzzer(CappedConfig(true, /*seed=*/23, /*max_execs=*/120)).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trim_kept_calls, 0u);
  EXPECT_EQ(result->trim_removed_calls, 0u);
}

}  // namespace
}  // namespace eof
