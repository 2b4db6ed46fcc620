// Campaign report builder: the offline half of the telemetry pipeline. `eof fuzz
// --metrics-out` writes a JSONL journal of virtual-time-stamped events; this module
// parses that journal back and folds it into a CampaignReport — coverage-over-time
// and throughput series, per-board time accounting, liveness-reset histogram, and
// the deduplicated bug table with full provenance (first-seen exec, board, seed
// stream, reproducer program, flight-recorder dump). The `eof report` subcommand
// renders it as text or machine-readable JSON.
//
// The load is deliberately strict: every row must match its type's field list
// (src/telemetry/rows.h), and a row that does not fails the whole load with its
// file and line number (CI runs `eof report` over campaign journals and must fail
// loudly on a corrupt one), while *missing* rows — a journal cut off before
// campaign_end, a sink that dropped rows — degrade to warnings carried in the
// report itself.

#ifndef SRC_TELEMETRY_REPORT_H_
#define SRC_TELEMETRY_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/telemetry/rows.h"

namespace eof {
namespace telemetry {

// One point of the campaign frontier series (from farm_snapshot rows).
struct ReportSample {
  VirtualTime at = 0;
  uint64_t coverage = 0;
  uint64_t execs = 0;
  double execs_per_vsec = 0;
};

// Fleet orchestration counters (lease_grant / heartbeat / worker_lost /
// corpus_sync ... rows written by `eof serve`). `present` flips when any fleet
// row (or a fleet=1 campaign_start) is seen; in-process journals render without
// a fleet section.
struct FleetSummary {
  bool present = false;
  uint64_t leases_granted = 0;
  uint64_t leases_completed = 0;
  uint64_t leases_reclaimed = 0;
  uint64_t workers_lost = 0;
  uint64_t heartbeats = 0;
  uint64_t corpus_syncs = 0;
  uint64_t worker_finals = 0;
};

// One line of the report's bug table: a bug_report row's record plus the later
// sightings folded into it (bug_dedup rows, and other workers' bug_report rows
// of the same bug in a merged fleet journal).
struct ReportedBug {
  BugReport bug;
  uint64_t duplicates = 0;
};

struct CampaignReport {
  // campaign_start envelope.
  std::string os;
  std::string board;
  uint64_t workers = 0;
  uint64_t seed = 0;
  VirtualTime budget = 0;
  VirtualTime interval = 0;

  // Final campaign truths (last farm_snapshot / campaign_end).
  VirtualTime end = 0;
  uint64_t final_coverage = 0;
  uint64_t final_execs = 0;
  uint64_t crashes = 0;
  uint64_t bugs_found = 0;
  uint64_t corpus = 0;
  uint64_t journal_dropped = 0;
  uint64_t crash_dumps = 0;  // crash_dump rows journaled (dumps >= deduped bugs)

  // Per-call attribution stats (last farm_snapshot row; both zero for campaigns
  // run without --trim).
  uint64_t trim_removed_calls = 0;  // calls dropped by trim-on-add
  uint64_t trim_kept_calls = 0;     // calls kept by trim-on-add

  std::vector<ReportSample> series;
  std::vector<BoardAccounting> boards;
  std::vector<ReportedBug> bugs;
  // Validation-rejected sightings (bug_report rows with snapshot_validation ==
  // "rejected"): journaled for forensics but never part of the bug table.
  std::vector<ReportedBug> rejected_bugs;
  std::map<std::string, uint64_t> resets_by_reason;  // liveness_reset rows
  // liveness_reset rows split by which path restored the board ("cold" /
  // "snapshot").
  std::map<std::string, uint64_t> restores_by_mode;
  std::vector<std::string> warnings;

  // Campaign id (campaign_start "campaign" text; "" for in-process journals).
  std::string campaign;
  FleetSummary fleet;

  // Human-readable report (the default `eof report` output).
  std::string RenderText() const;
  // One machine-readable JSON object, newline-terminated.
  std::string RenderJson() const;
};

// Folds parsed rows into a report. Never fails: structural gaps, and rows that do
// not match their list (only hand-built rows can), become warnings.
CampaignReport BuildReport(const std::vector<JournalRow>& rows);

// Reads, parses, and folds a journal file.
Result<CampaignReport> LoadReportFromFile(const std::string& path);

// Loads several journal files into one row list, honoring rotation: a file
// whose first row is a `journal_segment` header (written by
// RotatingFileEventSink) continues the previous file's stream, so a rotated
// segment directory concatenates back into exactly the stream one unrotated
// file would hold. With one resulting stream the rows are returned in file
// order, unsorted — byte-for-byte what a single file yields. With several
// streams (orchestrator + per-worker journals) the rows are pooled in path
// order and stable-sorted by virtual timestamp. Campaign-id consistency is
// enforced across all campaign_start rows; parse errors carry the path.
Result<std::vector<JournalRow>> LoadMergedJournalRows(
    const std::vector<std::string>& paths);

// Merges several per-process journals (an orchestrator journal plus one per
// fleet worker) into one report. Rows from all files are pooled and
// stable-sorted by virtual timestamp (file order breaks ties) before folding,
// so the merged series reads like one campaign. Every file must belong to the
// same campaign: journals whose campaign_start rows carry different non-empty
// "campaign" ids fail the load. Parse errors are prefixed with the offending
// path. With a single path this is exactly LoadReportFromFile.
Result<CampaignReport> LoadMergedReportFromFiles(
    const std::vector<std::string>& paths);

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_REPORT_H_
