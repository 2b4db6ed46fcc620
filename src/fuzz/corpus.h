// Corpus management: interesting programs (new coverage or crashes) are retained and
// scheduled for further mutation, weighted by how much new coverage they brought and how
// recently they were added (§4.5: "If so, EOF saves the case to the corpus for further
// mutation ... otherwise it discards the case").
//
// Thread safety: all public methods are internally synchronised, so a board farm's
// workers may Add/PickSeedCopy/ExportSince on one shared corpus concurrently.

#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
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

// A corpus entry outside its campaign: the program as reproducer text and the edges it
// discovered. The export, the scheduler's remote admission, the fleet wire and the
// orchestrator's merged store all hold this one record.
struct CorpusRecord {
  std::string text;
  uint64_t new_edges = 0;
};

class Corpus {
 public:
  explicit Corpus(size_t max_entries = 4096) : max_entries_(max_entries) {}

  // Admits `program` if its hash is unseen. Returns true when added.
  bool Add(Program program, uint64_t new_edges);

  // Weighted seed choice, copied into `out` under the lock: more new edges and fresher
  // entries are favoured; heavily re-picked entries decay. Returns false while empty.
  bool PickSeedCopy(Rng& rng, Program* out);

  // Copies every entry admitted at or after sequence `from_seq` into `out`, in
  // admission order, and returns the cursor to pass next time (one past the newest
  // admitted sequence). This is the fleet corpus-sync export: a worker remembers
  // the cursor it last shipped and uploads only the delta. Entries trimmed away between calls are simply
  // absent — the orchestrator already holds them. Safe under concurrent Add.
  uint64_t ExportSince(const spec::CompiledSpecs& specs, uint64_t from_seq,
                       std::vector<CorpusRecord>* out) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  bool empty() const { return size() == 0; }

  // Snapshot of the entry store. Single-threaded callers only (tests).
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
