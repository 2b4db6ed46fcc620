// Corpus scheduling and concurrency: the pinned PickSeedCopy schedule, and the
// thread-safe access path (Add / PickSeedCopy / ExportSince from many threads)
// holds its invariants — run under -fsanitize=thread in CI to catch races.

#include "src/fuzz/corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/fuzz/generator.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/spec/spec_miner.h"

namespace eof {
namespace fuzz {
namespace {

const spec::CompiledSpecs& Specs() {
  static const spec::CompiledSpecs* specs = [] {
    (void)RegisterAllOses();
    auto os = OsRegistry::Instance().Find("freertos").value().factory();
    auto mined = spec::MineValidatedSpecs(os->registry());
    return new spec::CompiledSpecs(std::move(mined.value().specs));
  }();
  return *specs;
}

// Pins the schedule PickSeedCopy draws (PickIndexLocked's weights and its one RNG
// draw per pick) on a seeded corpus: adds of mixed value, picks that decay heavily
// re-picked entries, and a trim that drops the weakest third.
TEST(CorpusScheduleTest, PickIndexSequenceIsPinned) {
  Corpus corpus(/*max_entries=*/24);
  Rng rng(2026);
  std::vector<size_t> picks;
  // Entry i holds one call with scalar i, so a pick maps back to its index.
  auto pick = [&] {
    Program copy;
    ASSERT_TRUE(corpus.PickSeedCopy(rng, &copy));
    const uint64_t id = copy.calls[0].args[0].scalar;
    for (size_t i = 0; i < corpus.entries().size(); ++i) {
      if (corpus.entries()[i].program.calls[0].args[0].scalar == id) {
        picks.push_back(i);
        return;
      }
    }
    FAIL() << "picked program " << id << " is not in the corpus";
  };
  for (uint64_t i = 0; i < 30; ++i) {
    Program program;
    program.calls.push_back(ProgCall{0, {ProgArg::Scalar(i)}});
    ASSERT_TRUE(corpus.Add(std::move(program), (i * 37) % 90));
    for (int k = 0; k < 3; ++k) {
      pick();
    }
  }
  for (int k = 0; k < 400; ++k) {
    pick();
  }
  ASSERT_EQ(corpus.size(), 21u);  // trimmed to 16 at the 25th add, then 5 more
  ASSERT_EQ(picks.size(), 490u);
  const std::vector<size_t> head(picks.begin(), picks.begin() + 24);
  EXPECT_EQ(head, (std::vector<size_t>{0, 0, 0, 1, 1, 1, 2, 2, 1, 2, 2, 2,
                                       2, 0, 2, 3, 4, 2, 3, 2, 2, 7, 2, 2}));
  uint64_t digest = kFnvOffsetBasis;
  for (size_t index : picks) {
    digest = HashCombine(digest, index);
  }
  EXPECT_EQ(digest, 0x28d467f5371d9e5bULL);
}

TEST(CorpusConcurrencyTest, ParallelAddPickExportKeepsInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  constexpr size_t kMaxEntries = 256;

  Corpus corpus(kMaxEntries);
  std::atomic<uint64_t> added{0};
  std::atomic<uint64_t> picked{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread generator and RNG: only the corpus itself is shared.
      Generator generator(Specs(), GeneratorOptions{}, 1000 + static_cast<uint64_t>(t));
      Rng rng(2000 + static_cast<uint64_t>(t));
      Program scratch;
      uint64_t cursor = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (i % 4) {
          case 0:
          case 1: {
            Program program = generator.Generate();
            if (corpus.Add(std::move(program), rng.Range(1, 16))) {
              added.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 2:
            if (corpus.PickSeedCopy(rng, &scratch)) {
              picked.fetch_add(1, std::memory_order_relaxed);
              EXPECT_FALSE(scratch.calls.empty());
            }
            break;
          default: {
            // The fleet pump's pattern: export the delta since the last cursor.
            std::vector<CorpusRecord> exported;
            uint64_t next = corpus.ExportSince(Specs(), cursor, &exported);
            EXPECT_GE(next, cursor);
            EXPECT_LE(exported.size(), kMaxEntries);
            cursor = next;
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_GT(added.load(), 0u);
  EXPECT_GT(picked.load(), 0u);
  EXPECT_LE(corpus.size(), kMaxEntries);
  EXPECT_GT(corpus.size(), 0u);
  // Post-condition sanity on the (now quiescent) store: sequence numbers unique.
  std::set<uint64_t> seqs;
  for (const CorpusEntry& entry : corpus.entries()) {
    EXPECT_TRUE(seqs.insert(entry.added_seq).second);
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace eof
