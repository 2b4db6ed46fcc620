#include "src/fuzz/corpus.h"

#include <algorithm>

#include "src/common/strings.h"
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

bool Corpus::Seen(const Program& program) {
  std::lock_guard<std::mutex> lock(mu_);
  return !seen_hashes_.insert(program.Hash()).second;
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

const Program* Corpus::PickSeed(Rng& rng) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) {
    return nullptr;
  }
  return &entries_[PickIndexLocked(rng)].program;
}

bool Corpus::PickSeedCopy(Rng& rng, Program* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) {
    return false;
  }
  *out = entries_[PickIndexLocked(rng)].program;
  return true;
}

uint64_t Corpus::ExportSince(
    const spec::CompiledSpecs& specs, uint64_t from_seq,
    std::vector<std::pair<std::string, uint64_t>>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const CorpusEntry& entry : entries_) {
    if (entry.added_seq >= from_seq) {
      out->emplace_back(SerializeProgramText(specs, entry.program), entry.new_edges);
    }
  }
  return next_seq_;
}

std::string Corpus::SaveText(const spec::CompiledSpecs& specs) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const CorpusEntry& entry : entries_) {
    out += StrFormat("# new_edges=%llu\n",
                     static_cast<unsigned long long>(entry.new_edges));
    out += SerializeProgramText(specs, entry.program);
    out += "\n";
  }
  return out;
}

Result<size_t> Corpus::LoadText(const spec::CompiledSpecs& specs, const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t admitted = 0;
  uint64_t new_edges = 1;
  std::string block;
  auto flush = [&]() {
    if (block.empty()) {
      return;
    }
    auto parsed = ParseProgramText(specs, block);
    if (parsed.ok() && AddLocked(std::move(parsed.value()), new_edges)) {
      ++admitted;
    }
    block.clear();
    new_edges = 1;
  };
  for (const std::string& line : StrSplit(text, '\n', /*keep_empty=*/true)) {
    std::string trimmed(StripWhitespace(line));
    if (trimmed.empty()) {
      flush();
      continue;
    }
    if (trimmed[0] == '#') {
      size_t tag = trimmed.find("new_edges=");
      if (tag != std::string::npos) {
        new_edges = strtoull(trimmed.c_str() + tag + 10, nullptr, 10);
      }
      continue;
    }
    block += trimmed + "\n";
  }
  flush();
  return admitted;
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
