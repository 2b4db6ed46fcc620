#include "src/fuzz/corpus.h"

#include <algorithm>

#include "src/fuzz/program_text.h"

namespace eof {
namespace fuzz {

bool Corpus::Add(Program program, uint64_t new_edges) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddLocked(std::move(program), new_edges);
}

bool Corpus::AddLocked(Program program, uint64_t new_edges) {
  uint64_t hash = program.Hash();
  if (!seen_hashes_.insert(hash).second) {
    return false;
  }
  CorpusEntry entry;
  entry.program = std::move(program);
  entry.new_edges = new_edges;
  entry.added_seq = next_seq_++;
  entries_.push_back(std::move(entry));
  TrimIfNeededLocked();
  weights_stale_ = true;
  return true;
}

uint64_t Corpus::WeightLocked(size_t index) const {
  const CorpusEntry& entry = entries_[index];
  uint64_t weight = 4 + std::min<uint64_t>(entry.new_edges, 64);
  // Recency bonus: the freshest quarter of the corpus gets extra attention.
  if (entries_.back().added_seq - entry.added_seq <
      std::max<uint64_t>(entries_.size() / 4, 8)) {
    weight += 16;
  }
  // Over-picked seeds decay so the schedule keeps rotating.
  weight = weight / (1 + std::min<uint64_t>(entry.picks / 32, 8));
  return std::max<uint64_t>(weight, 1);
}

size_t Corpus::PickIndexLocked(Rng& rng) {
  if (weights_stale_) {
    // An admission moved the recency window: weigh every entry again.
    weights_stale_ = false;
    weights_.resize(entries_.size());
    total_weight_ = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      weights_[i] = WeightLocked(i);
      total_weight_ += weights_[i];
    }
  }
  // Rng::WeightedIndex's draw and walk; every weight is at least 1.
  uint64_t point = rng.Below(total_weight_);
  size_t pick = 0;
  for (; pick + 1 < weights_.size() && point >= weights_[pick]; ++pick) {
    point -= weights_[pick];
  }
  ++entries_[pick].picks;
  // Only the picked entry's weight can move, when its pick count crosses a decay step.
  const uint64_t weight = WeightLocked(pick);
  total_weight_ = total_weight_ - weights_[pick] + weight;
  weights_[pick] = weight;
  return pick;
}

bool Corpus::PickSeedCopy(Rng& rng, Program* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) {
    return false;
  }
  *out = entries_[PickIndexLocked(rng)].program;
  return true;
}

uint64_t Corpus::ExportSince(const spec::CompiledSpecs& specs, uint64_t from_seq,
                             std::vector<CorpusRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const CorpusEntry& entry : entries_) {
    if (entry.added_seq >= from_seq) {
      out->push_back({SerializeProgramText(specs, entry.program), entry.new_edges});
    }
  }
  return next_seq_;
}

void Corpus::TrimIfNeededLocked() {
  if (entries_.size() <= max_entries_) {
    return;
  }
  // Drop the weakest third by discovery value, keeping admission order stable.
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return entries_[a].new_edges > entries_[b].new_edges;
  });
  size_t keep = max_entries_ * 2 / 3;
  std::unordered_set<size_t> kept(order.begin(),
                                  order.begin() + static_cast<std::ptrdiff_t>(keep));
  std::vector<CorpusEntry> survivors;
  survivors.reserve(keep);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (kept.count(i) != 0) {
      survivors.push_back(std::move(entries_[i]));
    }
  }
  entries_ = std::move(survivors);
}

}  // namespace fuzz
}  // namespace eof
