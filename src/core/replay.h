// Reproducer replay: run one saved program text against a fresh deployment with full
// monitoring, and report what happened — the triage half of the fuzzing workflow.
// Replay, trim and cold-boot validation each run one TargetExecutor::ExecuteOne on a
// freshly deployed board (reflash restores), so a verdict here is the verdict the
// campaign's own exec loop would reach.

#ifndef SRC_CORE_REPLAY_H_
#define SRC_CORE_REPLAY_H_

#include <string>

#include "src/common/status.h"
#include "src/core/fuzzer.h"

namespace eof {

struct ReplayOutcome {
  bool crashed = false;
  int catalog_id = 0;        // attributed Table-2 bug, 0 if unknown/no crash
  std::string detector;      // "exception" | "log" | "timeout" | ""
  std::string crash_text;    // signature excerpt + flight-dump UART tail when crashed
};

// Deploys `deploy` on a fresh board, parses `program_text` against `plan.specs`,
// executes it once with `plan.exception_symbol` armed, and reports. A stalled or
// link-lost run counts as a "timeout" crash; the catalog id is attributed from the
// signature excerpt, as the campaign scheduler attributes its sightings.
Result<ReplayOutcome> ReplayReproducer(const DeployOptions& deploy, const CampaignPlan& plan,
                                       const std::string& program_text);

// The same for `os_name` on its default board (or `board_name`), with the specs a
// default campaign mines.
Result<ReplayOutcome> ReplayReproducer(const std::string& os_name,
                                       const std::string& program_text,
                                       const std::string& board_name = "");

struct TrimOutcome {
  std::string trimmed_text;        // the minimized program, serialized
  size_t original_calls = 0;
  size_t kept_calls = 0;
  size_t removed_calls = 0;
  uint64_t original_coverage = 0;  // distinct edges the original run produced
  uint64_t trimmed_coverage = 0;   // distinct edges the verification run produced
  bool coverage_preserved = false; // verification run reached every original edge
};

// Edge-preserving minimization of one saved program (`eof trim`): runs it once on
// a fresh deployment collecting per-call attributed coverage, keeps only the calls
// that own a first-seen edge plus their transitive result producers, then replays
// the trimmed program on a second fresh board to verify the edge set survived.
Result<TrimOutcome> TrimReproducer(const std::string& os_name,
                                   const std::string& program_text,
                                   const std::string& board_name = "");

}  // namespace eof

#endif  // SRC_CORE_REPLAY_H_
