// Campaign report builder: the offline half of the telemetry pipeline. `eof fuzz
// --metrics-out` writes a JSONL journal of virtual-time-stamped events; this module
// parses that journal back and folds it into a CampaignReport — coverage-over-time
// and throughput series, per-board time accounting, liveness-reset histogram, and
// the deduplicated bug table with full provenance (first-seen exec, board, seed
// stream, reproducer program, flight-recorder dump). The `eof report` subcommand
// renders it as text or machine-readable JSON.
//
// The parser is deliberately strict: a malformed line fails the whole load with its
// line number (CI runs `eof report` over bench artifacts and must fail loudly on a
// corrupt journal), while *missing* rows — a journal cut off before campaign_end, a
// sink that dropped rows — degrade to warnings carried in the report itself.

#ifndef SRC_TELEMETRY_REPORT_H_
#define SRC_TELEMETRY_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"

namespace eof {
namespace telemetry {

// One parsed journal row: the three envelope fields plus every other key in flat
// typed maps. Journal values are only ever unsigned integers, reals, or strings
// (Event::ToJsonLine emits nothing else).
struct JournalRow {
  std::string type;
  VirtualTime at = 0;
  int worker = -1;
  std::map<std::string, uint64_t> uints;
  std::map<std::string, double> reals;
  std::map<std::string, std::string> texts;

  // Missing keys read as zero / empty; a real also satisfies Uint (truncated) so
  // consumers need not care which way a count was rendered.
  uint64_t Uint(const std::string& key, uint64_t fallback = 0) const;
  double Real(const std::string& key, double fallback = 0) const;
  const std::string& Text(const std::string& key) const;
  bool Has(const std::string& key) const;
};

// Parses one JSONL line (one flat JSON object). Fails on malformed JSON, nested
// values, or a missing "type" key.
Result<JournalRow> ParseJournalLine(std::string_view line);

// Parses a whole journal; empty lines are skipped, the first malformed line fails
// the load with its 1-based line number.
Result<std::vector<JournalRow>> ParseJournal(std::string_view text);

// One point of the campaign frontier series (from farm_snapshot rows).
struct ReportSample {
  VirtualTime at = 0;
  uint64_t coverage = 0;
  uint64_t execs = 0;
  double execs_per_vsec = 0;
};

// Where one board's virtual time went: the final board_snapshot row's counters and
// span sums. Percentages are against `clock` (the board's last reported time).
struct BoardAccounting {
  int worker = 0;
  VirtualTime clock = 0;
  uint64_t execs = 0;
  uint64_t restores = 0;
  uint64_t snapshot_restores = 0;  // restores served by the warm snapshot path
  uint64_t stalls = 0;
  uint64_t timeouts = 0;
  uint64_t exec_us = 0;      // running test cases (exec_continue spans)
  uint64_t drain_us = 0;     // coverage-ring drains
  uint64_t reflash_us = 0;   // flash programming
  uint64_t recovery_us = 0;  // watchdog recovery (includes nested reflash time)
  uint64_t deploy_us = 0;    // one-off initial deploy
  // Double-buffered drain accounting: how many drains rode on a continue's round
  // trip, and the virtual time that overlap saved versus a stop-and-drain.
  uint64_t overlapped_drains = 0;
  uint64_t drain_overlap_saved_us = 0;

  // Unattributed remainder (agent wait, status reads, resets outside recovery).
  uint64_t OtherUs() const;
};

// One deduplicated bug with its Table-2 attribution and forensics (bug_report rows).
struct ReportBug {
  int catalog_id = 0;
  std::string detector;
  std::string kind;
  std::string operation;  // Table 2 "Operations" column ("" for uncataloged bugs)
  std::string excerpt;
  std::string program;    // serialized reproducer
  VirtualTime at = 0;
  uint64_t first_exec = 0;
  int board = 0;
  uint64_t seed_stream = 0;
  uint64_t coverage_delta = 0;
  uint64_t duplicates = 0;  // later sightings folded by dedup
  // Cold-boot provenance: the validation verdict ("confirmed" / "rejected" /
  // "not_checked" — older journals read as "") and the restore mode that produced
  // the board state the bug fired on ("none" / "cold" / "snapshot").
  std::string snapshot_validation;
  std::string last_restore;
  std::string dump_reason;
  std::string uart_tail;  // newline-joined flight-recorder rings
  std::string port_ops;
  std::string events;
};

// Fleet orchestration counters (lease_grant / heartbeat / worker_lost /
// corpus_sync ... rows written by `eof serve`). `present` flips when any fleet
// row (or a fleet=1 campaign_start) is seen; legacy journals render without a
// fleet section so existing goldens stay byte-identical.
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
  // run without --trim or for pre-attribution journals).
  uint64_t trim_removed_calls = 0;  // calls dropped by trim-on-add
  uint64_t trim_kept_calls = 0;     // calls kept by trim-on-add

  std::vector<ReportSample> series;
  std::vector<BoardAccounting> boards;
  std::vector<ReportBug> bugs;
  // Validation-rejected sightings (bug_report rows with snapshot_validation ==
  // "rejected"): journaled for forensics but never part of the bug table.
  std::vector<ReportBug> rejected_bugs;
  std::map<std::string, uint64_t> resets_by_reason;  // liveness_reset rows
  // liveness_reset rows split by which path restored the board ("cold" /
  // "snapshot"; rows from pre-snapshot journals land under "cold").
  std::map<std::string, uint64_t> restores_by_mode;
  std::vector<std::string> warnings;

  // Campaign id (campaign_start "campaign" text; "" for legacy journals).
  std::string campaign;
  FleetSummary fleet;

  // Human-readable report (the default `eof report` output).
  std::string RenderText() const;
  // One machine-readable JSON object, newline-terminated.
  std::string RenderJson() const;
};

// Folds parsed rows into a report. Never fails: structural gaps become warnings.
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
