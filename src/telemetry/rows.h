// Journal rows: the schema of the JSONL journal. Each row type is one plain
// struct and one field list, `Fields(IO&, Row&)`, that names its keys in journal
// order. The JSON writer walks the list to render a row and the strict reader
// walks the same list to decode one, so the two cannot drift: adding a column
// touches one list.
//
// A row line is an envelope — "type", "t_us" and, for board-scoped rows,
// "worker" — followed by the row's fields. Values are unsigned integers, reals
// (rendered "%.4f") or strings, nothing else. The reader rejects a line whose
// keys do not match its type's list exactly: a missing key, an unknown key, a
// value of the wrong kind, or a type with no list. The only optional fields are
// campaign_start's trailing fleet markers.

#ifndef SRC_TELEMETRY_ROWS_H_
#define SRC_TELEMETRY_ROWS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace eof {
namespace telemetry {

// Where a board or campaign column's value lives in a MetricsSnapshot. The
// JSON writer and the reader ignore it; BoardColumnsOf and CampaignColumnsOf
// read the registry through it.
struct Metric {
  enum class Kind : uint8_t { kNone, kCounter, kGauge, kSpanSum };
  Kind kind = Kind::kNone;
  const char* name = nullptr;

  uint64_t Read(const MetricsSnapshot& snapshot) const;
};

constexpr Metric FromCounter(const char* name) { return {Metric::Kind::kCounter, name}; }
constexpr Metric FromGauge(const char* name) { return {Metric::Kind::kGauge, name}; }
// Sum of a span histogram ("span.<name>_us"): virtual time spent in that span.
constexpr Metric FromSpanSum(const char* name) { return {Metric::Kind::kSpanSum, name}; }

// --- Row structs and their field lists, in journal order ---
//
// A list visits `io(key, member)` per field (optionally with the Metric a column
// is read from), `io(nested)` for a struct of columns shared by two rows, and
// `io.Optional(key, member)` for a field written only when it is set.

struct CampaignStartRow {
  static constexpr char kType[] = "campaign_start";
  std::string os;
  std::string board;
  uint64_t workers = 0;
  uint64_t seed = 0;
  uint64_t budget_us = 0;
  uint64_t interval_us = 0;
  std::string campaign;  // fleet campaign id (orchestrator and workers)
  uint64_t fleet = 0;    // 1 on the orchestrator's row: the campaign envelope
};
template <class IO>
void Fields(IO& io, CampaignStartRow& r) {
  io("os", r.os)("board", r.board)("workers", r.workers)("seed", r.seed)("budget_us", r.budget_us)(
      "interval_us", r.interval_us);
  io.Optional("campaign", r.campaign).Optional("fleet", r.fleet);
}

struct CampaignEndRow {
  static constexpr char kType[] = "campaign_end";
  uint64_t journal_dropped = 0;
};
template <class IO>
void Fields(IO& io, CampaignEndRow& r) { io("journal_dropped", r.journal_dropped); }

// Where one board's virtual time went: a board_snapshot row (`worker` and `clock`
// are its envelope). The last row per board feeds the `eof report` time-accounting
// table, with percentages against `clock`. Farm rows carry the columns merged.
struct BoardAccounting {
  static constexpr char kType[] = "board_snapshot";
  int worker = 0;
  VirtualTime clock = 0;
  uint64_t execs = 0;
  double execs_per_vsec = 0;
  uint64_t coverage = 0;
  uint64_t edges_drained = 0;
  // Double-buffered drain accounting: how many drains rode on a continue's round
  // trip, and the virtual time that overlap saved versus a stop-and-drain.
  uint64_t overlapped_drains = 0;
  uint64_t drain_overlap_saved_us = 0;
  uint64_t rejected = 0;
  uint64_t stalls = 0;
  uint64_t timeouts = 0;
  uint64_t restores = 0;
  uint64_t snapshot_restores = 0;  // restores served by the warm snapshot path
  uint64_t snapshot_bytes = 0;
  uint64_t resets = 0;
  uint64_t warm_restores = 0;
  uint64_t link_transactions = 0;
  uint64_t link_batches = 0;
  uint64_t link_timeouts = 0;
  uint64_t flash_bytes = 0;
  uint64_t flash_skipped_bytes = 0;
  uint64_t exec_us = 0;      // running test cases (exec_continue spans)
  uint64_t drain_us = 0;     // coverage-ring drains
  uint64_t reflash_us = 0;   // flash programming
  uint64_t recovery_us = 0;  // watchdog recovery (includes nested reflash time)
  uint64_t deploy_us = 0;    // one-off initial deploy

  // Unattributed remainder (agent wait, status reads, resets outside recovery).
  uint64_t OtherUs() const;
};
template <class IO>
void Fields(IO& io, BoardAccounting& r) {
  io("execs", r.execs, FromCounter("exec.execs"))("execs_per_vsec", r.execs_per_vsec)(
      "coverage", r.coverage, FromGauge("exec.local_coverage"))(
      "edges_drained", r.edges_drained, FromCounter("exec.edges_drained"))(
      "overlapped_drains", r.overlapped_drains, FromCounter("exec.overlapped_drains"))(
      "drain_overlap_saved_us", r.drain_overlap_saved_us,
      FromCounter("exec.drain_overlap_saved_us"))(
      "rejected", r.rejected, FromCounter("exec.rejected"))(
      "stalls", r.stalls, FromCounter("exec.stalls"))(
      "timeouts", r.timeouts, FromCounter("exec.timeouts"))(
      "restores", r.restores, FromCounter("exec.restores"))(
      "snapshot_restores", r.snapshot_restores, FromCounter("exec.snapshot_restores"))(
      "snapshot_bytes", r.snapshot_bytes, FromCounter("exec.snapshot_bytes"))(
      "resets", r.resets, FromCounter("link.resets"))(
      "warm_restores", r.warm_restores, FromCounter("link.warm_restores"))(
      "link_transactions", r.link_transactions, FromCounter("link.transactions"))(
      "link_batches", r.link_batches, FromCounter("link.batches"))(
      "link_timeouts", r.link_timeouts, FromCounter("link.timeouts"))(
      "flash_bytes", r.flash_bytes, FromCounter("link.flash_bytes"))(
      "flash_skipped_bytes", r.flash_skipped_bytes, FromCounter("link.flash_skipped_bytes"))(
      "exec_us", r.exec_us, FromSpanSum("span.exec_continue_us"))(
      "drain_us", r.drain_us, FromSpanSum("span.coverage_drain_us"))(
      "reflash_us", r.reflash_us, FromSpanSum("span.reflash_us"))(
      "recovery_us", r.recovery_us, FromSpanSum("span.watchdog_recovery_us"))(
      "deploy_us", r.deploy_us, FromSpanSum("span.deploy_us"));
}

// The campaign columns of both farm rows: the scheduler's campaign.* instruments
// (or the orchestrator's merged equivalents).
struct CampaignColumns {
  uint64_t campaign_coverage = 0;
  uint64_t corpus = 0;
  uint64_t campaign_execs = 0;
  uint64_t crashes = 0;
  uint64_t bugs = 0;
  uint64_t bugs_rejected = 0;
  uint64_t trim_removed_calls = 0;
  uint64_t trim_kept_calls = 0;
};
template <class IO>
void Fields(IO& io, CampaignColumns& r) {
  io("campaign_coverage", r.campaign_coverage, FromGauge("campaign.coverage"))(
      "corpus", r.corpus, FromGauge("campaign.corpus"))(
      "campaign_execs", r.campaign_execs, FromCounter("campaign.execs"))(
      "crashes", r.crashes, FromCounter("campaign.crashes"))(
      "bugs", r.bugs, FromCounter("campaign.bugs"))(
      "bugs_rejected", r.bugs_rejected, FromCounter("campaign.bugs_rejected"))(
      "trim_removed_calls", r.trim_removed_calls, FromCounter("campaign.trim_removed_calls"))(
      "trim_kept_calls", r.trim_kept_calls, FromCounter("campaign.trim_kept_calls"));
}

// Reads every Metric-tagged column from `snapshot`; the other fields stay zero.
BoardAccounting BoardColumnsOf(const MetricsSnapshot& snapshot);
CampaignColumns CampaignColumnsOf(const MetricsSnapshot& snapshot);

// The in-process farm row: board columns merged over the boards, campaign columns.
struct FarmSnapshotRow {
  static constexpr char kType[] = "farm_snapshot";
  uint64_t boards = 0;
  BoardAccounting board;
  CampaignColumns campaign;
  uint64_t journal_dropped = 0;
};
template <class IO>
void Fields(IO& io, FarmSnapshotRow& r) {
  io("boards", r.boards)(r.board)(r.campaign)("journal_dropped", r.journal_dropped);
}

// The orchestrator's farm row. It has no board columns and alone carries a
// campaign id, which is how the reader tells the two farm rows apart.
struct FleetFarmSnapshotRow {
  static constexpr char kType[] = "farm_snapshot";
  static constexpr char kCampaignKey[] = "campaign";
  uint64_t boards = 0;
  double execs_per_vsec = 0;
  CampaignColumns campaign;
  uint64_t journal_dropped = 0;          // the orchestrator sink's own drops
  uint64_t journal_dropped_workers = 0;  // latest worker-reported drops, summed
  std::string campaign_id;
};
template <class IO>
void Fields(IO& io, FleetFarmSnapshotRow& r) {
  io("boards", r.boards)("execs_per_vsec", r.execs_per_vsec)(r.campaign)(
      "journal_dropped", r.journal_dropped)("journal_dropped_workers", r.journal_dropped_workers)(
      FleetFarmSnapshotRow::kCampaignKey, r.campaign_id);
}

struct NewCoverageRow {
  static constexpr char kType[] = "new_coverage";
  uint64_t fresh = 0;
  uint64_t total = 0;
};
template <class IO>
void Fields(IO& io, NewCoverageRow& r) { io("fresh", r.fresh)("total", r.total); }

struct TrimRow {
  static constexpr char kType[] = "trim";
  uint64_t kept = 0;
  uint64_t removed = 0;
};
template <class IO>
void Fields(IO& io, TrimRow& r) { io("kept", r.kept)("removed", r.removed); }

struct BugRow {
  static constexpr char kType[] = "bug";
  int catalog_id = 0;
  std::string detector;
  std::string kind;
};
template <class IO>
void Fields(IO& io, BugRow& r) {
  io("catalog_id", r.catalog_id)("detector", r.detector)("kind", r.kind);
}

struct BugDedupRow {
  static constexpr char kType[] = "bug_dedup";
  int catalog_id = 0;
  std::string detector;
};
template <class IO>
void Fields(IO& io, BugDedupRow& r) { io("catalog_id", r.catalog_id)("detector", r.detector); }

// The first sighting of a bug with its Table-2 attribution and forensics. One
// record from detection to report: the scheduler's bug table, the bug_report row
// (`at` is its t_us) and the fleet's Sync upload (the wire writes `at` ahead of
// the list) all carry it.
struct BugReport {
  static constexpr char kType[] = "bug_report";
  int catalog_id = 0;           // 0 = signature did not match the catalog
  std::string detector;         // "exception" | "log" | "timeout"
  std::string kind;             // "panic" | "assertion" | "unresponsive"
  std::string operation;        // Table 2 "Operations" column ("" for uncataloged bugs)
  uint64_t first_exec = 0;      // campaign exec index that triggered it (1-based)
  int board = 0;                // submitting board's campaign-global shard label
  uint64_t seed_stream = 0;     // that board's RNG stream (FarmWorkerSeed rule)
  uint64_t coverage_delta = 0;  // fresh edges this execution added to the global map
  // Cold-boot provenance: the validation verdict ("confirmed" / "rejected" when a
  // validator replayed the reproducer on a freshly flashed board, "not_checked"
  // without one) and the restore mode that produced the board state the bug
  // fired on ("none" / "cold" / "snapshot").
  std::string snapshot_validation = "not_checked";
  std::string last_restore = "none";
  std::string excerpt;       // crash text
  std::string program_text;  // the triggering program, formatted
  // The board's flight-recorder dump at detection: its reason and its rings as
  // newline-joined text (all empty when the execution produced no dump).
  std::string dump_reason;
  std::string uart_tail;
  std::string port_ops;
  std::string events;
  VirtualTime at = 0;

  bool operator==(const BugReport&) const = default;
};
template <class IO>
void Fields(IO& io, BugReport& r) {
  io("catalog_id", r.catalog_id)("detector", r.detector)("kind", r.kind)("operation", r.operation)(
      "first_exec", r.first_exec)("board", r.board)("seed_stream", r.seed_stream)(
      "coverage_delta", r.coverage_delta)("snapshot_validation", r.snapshot_validation)(
      "last_restore", r.last_restore)("excerpt", r.excerpt)("program", r.program_text)(
      "dump_reason", r.dump_reason)("uart_tail", r.uart_tail)("port_ops", r.port_ops)(
      "events", r.events);
}

// The one rule for "same bug", used by the scheduler's dedup, the orchestrator's
// admission and `eof report`'s fleet fold: a cataloged sighting is its catalog
// id, an uncataloged one (id 0) its crash excerpt.
inline bool SameBug(const BugReport& bug, int catalog_id, std::string_view excerpt) {
  return bug.catalog_id == catalog_id && (catalog_id != 0 || bug.excerpt == excerpt);
}
inline bool SameBug(const BugReport& a, const BugReport& b) {
  return SameBug(a, b.catalog_id, b.excerpt);
}

// A flight-recorder dump: the reason, lifetime totals and the rings as text.
struct CrashDumpRow {
  static constexpr char kType[] = "crash_dump";
  std::string reason;
  std::string last_restore;
  uint64_t port_ops_seen = 0;
  uint64_t uart_lines_seen = 0;
  uint64_t events_seen = 0;
  std::string port_ops;
  std::string uart_tail;
  std::string events;
};
template <class IO>
void Fields(IO& io, CrashDumpRow& r) {
  io("reason", r.reason)("last_restore", r.last_restore)("port_ops_seen", r.port_ops_seen)(
      "uart_lines_seen", r.uart_lines_seen)("events_seen", r.events_seen)("port_ops", r.port_ops)(
      "uart_tail", r.uart_tail)("events", r.events);
}

struct LivenessResetRow {
  static constexpr char kType[] = "liveness_reset";
  std::string reason;
  uint64_t restores = 0;
  std::string restore;  // "cold" / "snapshot": the path that restored the board
};
template <class IO>
void Fields(IO& io, LivenessResetRow& r) {
  io("reason", r.reason)("restores", r.restores)("restore", r.restore);
}

struct DeltaReflashRow {
  static constexpr char kType[] = "delta_reflash";
  uint64_t programmed_bytes = 0;
  uint64_t skipped_bytes = 0;
};
template <class IO>
void Fields(IO& io, DeltaReflashRow& r) {
  io("programmed_bytes", r.programmed_bytes)("skipped_bytes", r.skipped_bytes);
}

struct SpanRow {
  static constexpr char kType[] = "span";
  std::string span;
  uint64_t span_id = 0;
  uint64_t begin_us = 0;
  uint64_t dur_us = 0;
};
template <class IO>
void Fields(IO& io, SpanRow& r) {
  io("span", r.span)("span_id", r.span_id)("begin_us", r.begin_us)("dur_us", r.dur_us);
}

// Closes a rotated journal segment (RotatingFileEventSink).
struct JournalRotateRow {
  static constexpr char kType[] = "journal_rotate";
  uint64_t segment = 0;
  uint64_t bytes = 0;
  uint64_t rows = 0;
  std::string next;
};
template <class IO>
void Fields(IO& io, JournalRotateRow& r) {
  io("segment", r.segment)("bytes", r.bytes)("rows", r.rows)("next", r.next);
}

// Opens every continuation segment of a rotated journal.
struct JournalSegmentRow {
  static constexpr char kType[] = "journal_segment";
  uint64_t segment = 0;
  std::string base;
};
template <class IO>
void Fields(IO& io, JournalSegmentRow& r) { io("segment", r.segment)("base", r.base); }

// The fleet orchestrator's lease-lifecycle rows.
struct LeaseGrantRow {
  static constexpr char kType[] = "lease_grant";
  std::string campaign;
  uint64_t lease = 0;
  uint64_t shard = 0;
  uint64_t attempt = 0;
};
template <class IO>
void Fields(IO& io, LeaseGrantRow& r) {
  io("campaign", r.campaign)("lease", r.lease)("shard", r.shard)("attempt", r.attempt);
}

// A reclaimed lease carries the grant's fields.
struct LeaseReclaimRow : LeaseGrantRow {
  static constexpr char kType[] = "lease_reclaim";
};

struct LeaseCompleteRow {
  static constexpr char kType[] = "lease_complete";
  std::string campaign;
  uint64_t lease = 0;
  uint64_t shard = 0;
  uint64_t execs = 0;
};
template <class IO>
void Fields(IO& io, LeaseCompleteRow& r) {
  io("campaign", r.campaign)("lease", r.lease)("shard", r.shard)("execs", r.execs);
}

struct WorkerLostRow {
  static constexpr char kType[] = "worker_lost";
  std::string campaign;
  std::string name;
};
template <class IO>
void Fields(IO& io, WorkerLostRow& r) { io("campaign", r.campaign)("name", r.name); }

struct CorpusSyncRow {
  static constexpr char kType[] = "corpus_sync";
  std::string campaign;
  uint64_t programs = 0;
  uint64_t corpus = 0;
};
template <class IO>
void Fields(IO& io, CorpusSyncRow& r) {
  io("campaign", r.campaign)("programs", r.programs)("corpus", r.corpus);
}

struct HeartbeatRow {
  static constexpr char kType[] = "heartbeat";
  std::string campaign;
  uint64_t seq = 0;
  uint64_t leases = 0;
  uint64_t execs = 0;
};
template <class IO>
void Fields(IO& io, HeartbeatRow& r) {
  io("campaign", r.campaign)("seq", r.seq)("leases", r.leases)("execs", r.execs);
}

struct WorkerFinalRow {
  static constexpr char kType[] = "worker_final";
  std::string campaign;
  uint64_t execs = 0;
  uint64_t coverage = 0;
  uint64_t crashes = 0;
};
template <class IO>
void Fields(IO& io, WorkerFinalRow& r) {
  io("campaign", r.campaign)("execs", r.execs)("coverage", r.coverage)("crashes", r.crashes);
}

// Any decoded row.
using AnyRow =
    std::variant<CampaignStartRow, CampaignEndRow, FarmSnapshotRow, FleetFarmSnapshotRow,
                 BoardAccounting, NewCoverageRow, TrimRow, BugRow, BugDedupRow, BugReport,
                 CrashDumpRow, LivenessResetRow, DeltaReflashRow, SpanRow, JournalRotateRow,
                 JournalSegmentRow, LeaseGrantRow, LeaseReclaimRow, LeaseCompleteRow,
                 WorkerLostRow, CorpusSyncRow, HeartbeatRow, WorkerFinalRow>;

// --- Writer ---

// Appends each visited field as `"key":value` to a JSON object under
// construction, with a comma unless it is the object's first field.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& operator()(const char* key, uint64_t value, Metric = {});
  JsonWriter& operator()(const char* key, int value);
  JsonWriter& operator()(const char* key, double value);
  JsonWriter& operator()(const char* key, const std::string& value);

  template <class Columns>
  JsonWriter& operator()(Columns& nested) {
    Fields(*this, nested);
    return *this;
  }

  template <class T>
  JsonWriter& Optional(const char* key, const T& value) {
    return value == T() ? *this : (*this)(key, value);
  }

 private:
  void Key(const char* key);

  std::string* out_;
};

// One journal event: `row` rendered by its list, stamped with the envelope.
template <class Row>
Event RowEvent(VirtualTime at, int worker, const Row& row) {
  Event event;
  event.at = at;
  event.type = Row::kType;
  event.worker = worker;
  JsonWriter writer(&event.fields);
  Fields(writer, const_cast<Row&>(row));  // the writer never modifies a field
  return event;
}

// Journals the row `make()` returns; builds nothing when `sink` is null.
template <class Make>
void Journal(EventSink* sink, VirtualTime at, int worker, Make&& make) {
  if (sink != nullptr) {
    sink->Emit(RowEvent(at, worker, make()));
  }
}

// --- Strict reader ---

// One parsed journal line: the envelope plus every other key in flat typed maps.
// DecodeRow turns it into its typed row.
struct JournalRow {
  std::string type;
  VirtualTime at = 0;
  int worker = -1;
  std::map<std::string, uint64_t> uints;
  std::map<std::string, double> reals;
  std::map<std::string, std::string> texts;
};

// Parses one JSONL line (one flat JSON object). Fails on malformed JSON, nested
// values, a repeated key, a number that overflows, or a bad envelope (no string
// "type", no unsigned "t_us", a "worker" that is not a board index). Does not
// look at the row's list.
Result<JournalRow> ParseJournalLine(std::string_view line);

// Decodes `row` through the list of its type; fails on an unknown type, a
// missing or unknown key, or a value of the wrong kind.
Result<AnyRow> DecodeRow(const JournalRow& row);

// Parses a whole journal and checks every row against its list; empty lines are
// skipped, the first bad line fails the load with its 1-based line number.
Result<std::vector<JournalRow>> ParseJournal(std::string_view text);

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_ROWS_H_
