// Reproducer replay: run one saved program text against a fresh deployment with full
// monitoring, and report what happened — the triage half of the fuzzing workflow.

#ifndef SRC_CORE_REPLAY_H_
#define SRC_CORE_REPLAY_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/core/fuzzer.h"

namespace eof {

struct ReplayOutcome {
  bool crashed = false;
  int catalog_id = 0;        // attributed Table-2 bug, 0 if unknown/no crash
  std::string detector;      // "exception" | "log" | ""
  std::string crash_text;    // UART capture when crashed
  std::string uart;          // full UART capture of the run
};

// Deploys `os_name` on its default board (or `board_name`), parses `program_text`
// against freshly mined specs, executes it once, and reports. `image`, when set, is
// flashed instead of a freshly built one (DeployOptions::image); the board is fresh
// and cold-booted either way.
Result<ReplayOutcome> ReplayReproducer(const std::string& os_name,
                                       const std::string& program_text,
                                       const std::string& board_name = "",
                                       std::shared_ptr<const FirmwareImage> image = nullptr);

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
