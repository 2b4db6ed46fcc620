// Corpus management: interesting programs (new coverage or crashes) are retained and
// scheduled for further mutation, weighted by how much new coverage they brought and how
// recently they were added (§4.5: "If so, EOF saves the case to the corpus for further
// mutation ... otherwise it discards the case").
//
// Thread safety: all public methods are internally synchronised, so a board farm's
// workers may Add/Seen/PickSeedCopy on one shared corpus concurrently. PickSeed
// returns a pointer into the entry store and is only safe while the caller is the
// sole mutator (the single-threaded engine); concurrent schedulers must use
// PickSeedCopy, which copies the chosen program out under the lock.

#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/fuzz/program.h"
#include "src/spec/compiler.h"

namespace eof {
namespace fuzz {

struct CorpusEntry {
  Program program;
  uint64_t new_edges = 0;   // edges this program discovered when added
  uint64_t added_seq = 0;   // admission order
  uint64_t picks = 0;       // times scheduled since admission
};

class Corpus {
 public:
  explicit Corpus(size_t max_entries = 4096) : max_entries_(max_entries) {}

  // Admits `program` if its hash is unseen. Returns true when added.
  bool Add(Program program, uint64_t new_edges);

  // True if an identical program was admitted before (also marks it seen, so repeated
  // non-interesting duplicates are cheap to skip).
  bool Seen(const Program& program);

  // Weighted seed choice: more new edges and fresher entries are favoured; heavily
  // re-picked entries decay. Returns nullptr while empty. Single-threaded callers
  // only — the pointer is invalidated by any concurrent Add/trim.
  const Program* PickSeed(Rng& rng);

  // Same schedule (identical RNG consumption), but copies the pick into `out` under
  // the lock. Returns false while empty. Safe under concurrent mutation.
  bool PickSeedCopy(Rng& rng, Program* out);

  // Serializes the whole corpus as reproducer texts separated by blank lines (campaign
  // checkpointing); LoadText re-admits every program that still parses against `specs`
  // and returns how many were admitted.
  std::string SaveText(const spec::CompiledSpecs& specs) const;
  Result<size_t> LoadText(const spec::CompiledSpecs& specs, const std::string& text);

  // Copies every entry admitted at or after sequence `from_seq` into `out` as
  // (reproducer text, new_edges) pairs, in admission order, and returns the
  // cursor to pass next time (one past the newest admitted sequence). This is
  // the fleet corpus-sync export: a worker remembers the cursor it last shipped
  // and uploads only the delta. Entries trimmed away between calls are simply
  // absent — the orchestrator already holds them. Safe under concurrent Add.
  uint64_t ExportSince(const spec::CompiledSpecs& specs, uint64_t from_seq,
                       std::vector<std::pair<std::string, uint64_t>>* out) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  bool empty() const { return size() == 0; }

  // Snapshot of the entry store. Single-threaded callers only (tests, checkpointing).
  const std::vector<CorpusEntry>& entries() const { return entries_; }

 private:
  bool AddLocked(Program program, uint64_t new_edges);
  // The scheduling weight of entries_[index] (at least 1).
  uint64_t WeightLocked(size_t index) const;
  size_t PickIndexLocked(Rng& rng);
  void TrimIfNeededLocked();

  size_t max_entries_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  std::vector<CorpusEntry> entries_;
  // WeightLocked of every entry and their sum, kept across picks. Every admission
  // moves the recency window and marks them stale; the next pick rebuilds them.
  std::vector<uint64_t> weights_;
  uint64_t total_weight_ = 0;
  bool weights_stale_ = true;
  std::unordered_set<uint64_t> seen_hashes_;
};

}  // namespace fuzz
}  // namespace eof

#endif  // SRC_FUZZ_CORPUS_H_
