// Campaign aggregation, repetition seeding, and the board farm: Band() truncation
// semantics, hashed repetition-seed independence, farm determinism (--jobs 1 must
// bit-match the single-threaded engine), and multi-worker scaling.

#include "src/core/campaign.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/hash.h"
#include "src/core/board_farm.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program_text.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }
};

CampaignResult ResultWithSeries(std::initializer_list<uint64_t> coverages) {
  CampaignResult result;
  VirtualTime t = 0;
  for (uint64_t coverage : coverages) {
    t += kVirtualMinute;
    result.series.push_back(CampaignSample{t, coverage});
  }
  return result;
}

TEST_F(CampaignTest, BandTruncatesToShortestSeries) {
  RepeatedResult repeated;
  repeated.runs.push_back(ResultWithSeries({10, 20, 30, 40, 50}));
  repeated.runs.push_back(ResultWithSeries({12, 18, 36}));

  SeriesBand band = repeated.Band();
  // Unequal-length series aggregate only over the shared prefix: the band stops at
  // the shortest run.
  ASSERT_EQ(band.time.size(), 3u);
  ASSERT_EQ(band.mean.size(), 3u);
  ASSERT_EQ(band.min.size(), 3u);
  ASSERT_EQ(band.max.size(), 3u);
  EXPECT_DOUBLE_EQ(band.mean[2], (30.0 + 36.0) / 2);
  EXPECT_DOUBLE_EQ(band.min[0], 10.0);
  EXPECT_DOUBLE_EQ(band.max[0], 12.0);
}

TEST_F(CampaignTest, BandOfEmptyRunsIsEmpty) {
  RepeatedResult repeated;
  EXPECT_TRUE(repeated.Band().time.empty());
  repeated.runs.push_back(ResultWithSeries({1, 2}));
  repeated.runs.push_back(CampaignResult{});  // no samples at all
  EXPECT_TRUE(repeated.Band().time.empty());
}

TEST_F(CampaignTest, RepetitionSeedsAreUniqueAcrossAdjacentBasesAndReps) {
  // The old additive scheme (base + rep * 7919) collided: (base, rep) and
  // (base + 7919, rep - 1) shared a seed. The hashed derivation must keep every
  // (base, rep) pair distinct — including across the stride that used to collide.
  std::set<uint64_t> seeds;
  size_t expected = 0;
  for (uint64_t base : {1ull, 2ull, 3ull, 42ull, 1ull + 7919ull, 2ull + 7919ull}) {
    for (int rep = 0; rep < 5; ++rep) {
      seeds.insert(RepetitionSeed(base, rep));
      ++expected;
    }
  }
  EXPECT_EQ(seeds.size(), expected);

  // Repetition streams must not alias farm worker streams of the same base seed.
  for (int lane = 0; lane < 8; ++lane) {
    EXPECT_EQ(seeds.count(FarmWorkerSeed(1, lane)), 0u);
  }
}

TEST_F(CampaignTest, FarmWorkerZeroKeepsBaseSeed) {
  EXPECT_EQ(FarmWorkerSeed(77, 0), 77u);
  EXPECT_NE(FarmWorkerSeed(77, 1), 77u);
  EXPECT_NE(FarmWorkerSeed(77, 1), FarmWorkerSeed(77, 2));
  EXPECT_NE(FarmWorkerSeed(77, 1), FarmWorkerSeed(78, 1));
}

FuzzerConfig ShortCampaign(uint64_t seed) {
  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = seed;
  config.budget = 5 * kVirtualMinute;
  config.sample_points = 10;
  return config;
}

TEST_F(CampaignTest, FarmWithOneJobBitMatchesSingleThreadedEngine) {
  FuzzerConfig config = ShortCampaign(21);

  EofFuzzer fuzzer(config);
  auto single = fuzzer.Run();
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  BoardFarm farm(config, /*jobs=*/1);
  auto farmed = farm.Run();
  ASSERT_TRUE(farmed.ok()) << farmed.status().ToString();

  const CampaignResult& a = single.value();
  const CampaignResult& b = farmed.value();
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.elapsed, b.elapsed);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].time, b.series[i].time) << "sample " << i;
    EXPECT_EQ(a.series[i].coverage, b.series[i].coverage) << "sample " << i;
  }
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].catalog_id, b.bugs[i].catalog_id);
    EXPECT_EQ(a.bugs[i].program_text, b.bugs[i].program_text);
  }
}

TEST_F(CampaignTest, FarmScalesExecutionsAcrossWorkers) {
  FuzzerConfig config = ShortCampaign(31);
  // Long enough that one unlucky state restoration (tens of virtual minutes of
  // reflash/reboot cost) cannot consume a worker's whole window.
  config.budget = 30 * kVirtualMinute;

  BoardFarm one(config, 1);
  auto one_result = one.Run();
  ASSERT_TRUE(one_result.ok()) << one_result.status().ToString();

  BoardFarm two(config, 2);
  auto two_result = two.Run();
  ASSERT_TRUE(two_result.ok()) << two_result.status().ToString();

  // Two boards each burn the full virtual budget, so the farmed campaign executes
  // roughly twice the payloads in the same campaign window.
  EXPECT_GT(two_result.value().execs, one_result.value().execs * 3 / 2);
  EXPECT_GE(two_result.value().final_coverage, one_result.value().final_coverage / 2);
  EXPECT_EQ(two_result.value().series.size(), config.sample_points);
  // Merged series stays monotone.
  for (size_t i = 1; i < two_result.value().series.size(); ++i) {
    EXPECT_GE(two_result.value().series[i].coverage,
              two_result.value().series[i - 1].coverage);
  }
}

TEST_F(CampaignTest, RunRepeatedParallelMatchesSerial) {
  FuzzerConfig config = ShortCampaign(5);
  auto serial = RunRepeated(config, 2, /*parallelism=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunRepeated(config, 2, /*parallelism=*/2);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial.value().runs.size(), parallel.value().runs.size());
  for (size_t i = 0; i < serial.value().runs.size(); ++i) {
    EXPECT_EQ(serial.value().runs[i].execs, parallel.value().runs[i].execs) << i;
    EXPECT_EQ(serial.value().runs[i].final_coverage,
              parallel.value().runs[i].final_coverage)
        << i;
  }
}

TEST_F(CampaignTest, SeededCorpusSetsTheCorpusGauge) {
  FuzzerConfig config = ShortCampaign(3);
  auto plan = PrepareCampaign(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  fuzz::Generator generator(plan->specs, fuzz::GeneratorOptions{}, /*seed=*/9);
  std::vector<std::string> seeds;
  for (int i = 0; i < 3; ++i) {
    seeds.push_back(fuzz::SerializeProgramText(plan->specs, generator.Generate()));
  }

  telemetry::MetricsRegistry registry;
  CampaignScheduler::Options options = MakeSchedulerOptions(
      config, /*workers=*/1, std::make_shared<const CampaignPlan>(plan.value()));
  options.registry = &registry;
  CampaignScheduler scheduler(plan->specs, options);
  scheduler.SeedCorpus(seeds);
  ASSERT_GT(scheduler.CorpusSize(), 0u);
  // Before any execution, the gauge already reads the seeded corpus.
  EXPECT_EQ(registry.Snapshot().GaugeValue("campaign.corpus"), scheduler.CorpusSize());
}

// A peer program whose text no longer parses (an API from an older build) is
// skipped; a live one is admitted with its discovery value, and a second delivery
// admits nothing.
TEST_F(CampaignTest, AdmitRemoteProgramsSkipsStaleTexts) {
  FuzzerConfig config = ShortCampaign(4);
  config.os_name = "rtthread";
  auto plan = PrepareCampaign(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CampaignScheduler::Options options = MakeSchedulerOptions(
      config, /*workers=*/1, std::make_shared<const CampaignPlan>(plan.value()));
  CampaignScheduler scheduler(plan->specs, options);

  const std::vector<fuzz::CorpusRecord> records = {
      {"r0 = rt_sem_create(`73656d30`, 0x1)\n", 3}, {"r0 = rt_api_gone(0x1)\n", 5}};
  EXPECT_EQ(scheduler.AdmitRemotePrograms(records), 1u);
  EXPECT_EQ(scheduler.AdmitRemotePrograms(records), 0u);

  std::vector<fuzz::CorpusRecord> exported;
  scheduler.ExportCorpusSince(0, &exported);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].text, records[0].text);
  EXPECT_EQ(exported[0].new_edges, 3u);
}

// EOF_BENCH_SCALE is a positive integer divisor of the paper's 24 hours. Anything
// else exits naming the value instead of silently running the full 24 hours.
TEST(BenchScaleTest, AcceptsOnlyPositiveIntegers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* saved = getenv("EOF_BENCH_SCALE");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("EOF_BENCH_SCALE");
  EXPECT_EQ(ScaledCampaignBudget(), 3 * kVirtualHour);
  setenv("EOF_BENCH_SCALE", "24", 1);
  EXPECT_EQ(ScaledCampaignBudget(), kVirtualHour);
  EXPECT_EQ(ScaledRepetitions(), 2);
  for (const char* bad : {"0.25", "abc", "0", "", "8x", "-8", " 8"}) {
    setenv("EOF_BENCH_SCALE", bad, 1);
    EXPECT_EXIT(ScaledCampaignBudget(), ::testing::ExitedWithCode(2),
                std::string("EOF_BENCH_SCALE=\"") + bad + "\"")
        << bad;
  }
  if (saved != nullptr) {
    setenv("EOF_BENCH_SCALE", restore.c_str(), 1);
  } else {
    unsetenv("EOF_BENCH_SCALE");
  }
}

}  // namespace
}  // namespace eof
