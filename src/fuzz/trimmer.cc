#include "src/fuzz/trimmer.h"

namespace eof {
namespace fuzz {

Program TrimToCalls(const Program& program, const std::vector<uint32_t>& owner_calls,
                    TrimStats* stats) {
  size_t n = program.calls.size();
  std::vector<bool> keep(n, false);
  bool any = false;
  for (uint32_t index : owner_calls) {
    if (index < n) {
      keep[index] = true;
      any = true;
    }
  }
  if (!any) {
    if (stats != nullptr) {
      stats->kept_calls = n;
      stats->removed_calls = 0;
    }
    return program;
  }
  // Producer closure: kResult refs always point at earlier calls, so one
  // descending pass marks every transitive producer.
  for (size_t i = n; i-- > 0;) {
    if (!keep[i]) {
      continue;
    }
    for (const ProgArg& arg : program.calls[i].args) {
      if (arg.kind == ProgArg::Kind::kResult && arg.ref >= 0 &&
          static_cast<size_t>(arg.ref) < i) {
        keep[static_cast<size_t>(arg.ref)] = true;
      }
    }
  }

  std::vector<int> remap(n, -1);
  Program trimmed;
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) {
      continue;
    }
    remap[i] = static_cast<int>(trimmed.calls.size());
    ProgCall call = program.calls[i];
    for (ProgArg& arg : call.args) {
      if (arg.kind == ProgArg::Kind::kResult && arg.ref >= 0 &&
          static_cast<size_t>(arg.ref) < n) {
        // The closure pass marked every referenced producer, so the remap is total.
        arg.ref = remap[static_cast<size_t>(arg.ref)];
      }
    }
    trimmed.calls.push_back(std::move(call));
  }
  if (stats != nullptr) {
    stats->kept_calls = trimmed.calls.size();
    stats->removed_calls = n - trimmed.calls.size();
  }
  return trimmed;
}

Program TrimToFreshHits(const Program& program, const std::vector<CovHit>& fresh_hits,
                        TrimStats* stats) {
  std::vector<uint32_t> owner_calls;
  owner_calls.reserve(fresh_hits.size());
  for (const CovHit& hit : fresh_hits) {
    owner_calls.push_back(hit.call);
  }
  return TrimToCalls(program, owner_calls, stats);
}

}  // namespace fuzz
}  // namespace eof
