// CampaignScheduler: the campaign-wide half of the engine. It owns everything that
// is shared across board sessions — the corpus, the global coverage map, bug
// deduplication, campaign counters, and the coverage-over-time series — and decides
// which program each executor runs next (mutate / splice / generate against the
// shared corpus, §4.5).
//
// All public methods are thread-safe: the campaign loop (board_farm.h) calls them
// from one thread per board session. Program construction (the actual
// Mutate/Splice/Generate work) happens outside the lock on the caller's own
// Generator so workers only serialise on corpus picks and outcome merging.

#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/coverage_map.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/vclock.h"
#include "src/core/executor.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/generator.h"
#include "src/spec/compiler.h"
#include "src/telemetry/telemetry.h"

namespace eof {

struct CampaignSample {
  VirtualTime time = 0;
  uint64_t coverage = 0;
};

struct BugReport {
  int catalog_id = 0;          // 0 = signature did not match the catalog
  std::string detector;        // "exception" | "log" | "timeout"
  std::string kind;            // "panic" | "assertion" | "unresponsive"
  std::string excerpt;         // crash text
  VirtualTime at = 0;
  std::string program_text;    // the triggering program, formatted

  // Provenance of the first sighting (later duplicates only bump the dedup counter).
  uint64_t first_exec = 0;     // campaign exec index that triggered it (1-based)
  int board = 0;               // submitting worker / board index
  uint64_t seed_stream = 0;    // that worker's RNG stream (FarmWorkerSeed rule)
  uint64_t coverage_delta = 0; // fresh edges this execution added to the global map
  // Cold-boot provenance verdict: "confirmed" / "rejected" when a validator replayed
  // the reproducer against a freshly flashed board, "not_checked" when no validator
  // was installed (reflash-mode campaigns — every exec already starts cold).
  std::string snapshot_validation = "not_checked";
  // The board's flight-recorder state at detection: last port ops, UART tail, and
  // exec-loop events leading up to the crash (empty when the detecting execution
  // produced no dump — never the case for the executor's crash/stall/link paths).
  telemetry::FlightDump dump;
};

struct CampaignResult {
  uint64_t final_coverage = 0;
  std::vector<CampaignSample> series;
  std::vector<BugReport> bugs;  // first sighting of each distinct catalog id / signature
  // First sightings the cold-boot validation oracle refused to confirm: the
  // reproducer did not crash a freshly flashed board, so the "bug" was an artifact
  // of accumulated warm-restore state. Journaled (snapshot_validation="rejected")
  // but never admitted to `bugs`.
  uint64_t bugs_rejected = 0;
  uint64_t execs = 0;
  uint64_t rejected = 0;
  uint64_t crashes = 0;
  uint64_t stalls = 0;
  uint64_t timeouts = 0;
  uint64_t restores = 0;
  uint64_t snapshot_restores = 0;  // restores served by the warm snapshot path
  uint64_t snapshot_bytes = 0;     // RAM bytes those restores pushed over the link
  uint64_t corpus_size = 0;
  VirtualTime elapsed = 0;
  // Summed debug-link traffic across the campaign's board sessions (round trips,
  // batches, flash bytes programmed vs. skipped by the delta-reflash cache).
  DebugPortStats link;
  // Journal rows the bounded sink buffer dropped (0 when no journal was attached).
  // Non-zero means the JSONL file is incomplete and `eof report` numbers derived
  // from it are lower bounds — the campaign itself is unaffected.
  uint64_t journal_dropped = 0;
  // What the edge-preserving trimmer removed/kept on corpus admission (both 0
  // unless --trim ran).
  uint64_t trim_removed_calls = 0;
  uint64_t trim_kept_calls = 0;
  // Corpus reproducer texts in admission order; filled only when
  // Options::export_corpus is set (fleet differential tests, checkpointing).
  std::vector<std::string> corpus_programs;

  bool FoundBug(int catalog_id) const {
    for (const BugReport& bug : bugs) {
      if (bug.catalog_id == catalog_id) {
        return true;
      }
    }
    return false;
  }
};

// Fixed-resolution coverage time-series recorder shared by every campaign loop
// (EOF engine, board farm, byte-buffer baselines): records the coverage count at
// each elapsed sample boundary and pads unreached points at campaign end.
class SeriesSampler {
 public:
  SeriesSampler(VirtualDuration budget, uint32_t sample_points)
      : budget_(budget),
        points_(sample_points),
        interval_(budget / std::max<uint32_t>(sample_points, 1)),
        next_(interval_) {}

  // Appends one sample per boundary the campaign has passed.
  void Advance(VirtualTime elapsed, uint64_t coverage, std::vector<CampaignSample>* series) {
    while (elapsed >= next_ && series->size() < points_) {
      series->push_back(CampaignSample{next_, coverage});
      next_ += interval_;
    }
  }

  // Pads the series to its full length so repetitions align.
  void Finish(uint64_t coverage, std::vector<CampaignSample>* series) {
    while (series->size() < points_) {
      series->push_back(
          CampaignSample{budget_ * (series->size() + 1) / points_, coverage});
    }
  }

 private:
  VirtualDuration budget_;
  uint32_t points_;
  VirtualDuration interval_;
  VirtualTime next_;
};

// Sets every CampaignResult scalar from one metrics snapshot: the scheduler's
// campaign.* counters and gauges in `campaign`, plus the campaign's summed
// executor and link stats. Finalize and the fleet orchestrator's merge both use
// it, so a new campaign counter is wired here and nowhere else.
void SetResultScalars(const telemetry::MetricsSnapshot& campaign, const ExecStats& stats,
                      const DebugPortStats& link, CampaignResult* result);

class CampaignScheduler {
 public:
  struct Options {
    std::string os_name;              // bug attribution (catalog is per-OS)
    bool coverage_feedback = true;    // corpus + generator credit
    // Edge-preserving trim on corpus admission: keep only the calls the fresh
    // edges attribute to, plus their transitive result producers.
    bool trim = false;
    VirtualDuration budget = 0;
    uint32_t sample_points = 96;
    int workers = 1;
    uint64_t seed = 1;                // campaign base seed — bug provenance records the
                                      // submitting worker's derived stream from it

    // Fleet sharding: `shard_ids[i]` is the campaign-global shard label of local
    // worker slot i. Bug provenance (board, seed_stream) and journal rows are
    // stamped with the global label so merged per-worker journals attribute
    // correctly; session bookkeeping (the series sampler) stays local. Empty =
    // identity (the in-process farm).
    std::vector<int> shard_ids;
    // Keep an exact log of locally discovered fresh edges so TakeCoverageDelta
    // can ship bitmap diffs upstream. Off for in-process campaigns.
    bool track_coverage_delta = false;
    // Fill CampaignResult::corpus_programs at Finalize.
    bool export_corpus = false;

    // Campaign-scope telemetry: `registry` takes the campaign.* counters (nullptr =
    // the scheduler owns a private registry); `sink` receives new_coverage / bug /
    // bug_dedup journal events (nullptr = no journal). Both must outlive the
    // scheduler when set.
    telemetry::MetricsRegistry* registry = nullptr;
    telemetry::EventSink* sink = nullptr;

    // Cold-boot validation oracle for snapshot-mode campaigns (the libriscv lesson:
    // reused machine state breeds unreproducible crashes). When set, every
    // first-sighting bug's reproducer is replayed before admission — return true to
    // confirm, false to reject as state-dependent. Runs under the campaign lock on
    // a separate board with its own virtual clock, so validation replays are
    // serialized and never perturb campaign timing. nullptr = admit everything
    // (snapshot_validation stays "not_checked").
    std::function<bool(const BugReport&)> validator;
  };

  CampaignScheduler(const spec::CompiledSpecs& specs, Options options);

  // Parses the initial corpus (reproducer-text programs, §4.5) against the specs;
  // entries that fail to parse are skipped. Admission only with feedback on.
  void SeedCorpus(const std::vector<std::string>& seed_programs);

  // Picks the next input for a worker: 70% mutate a corpus seed, 10% splice two,
  // else generate fresh (only generate while the corpus is empty or feedback is
  // off). The roll and the seed picks consume `rng` under the campaign lock; the
  // program is built outside it on the caller's generator.
  fuzz::Program NextProgram(fuzz::Generator& generator, Rng& rng);

  // Folds one execution outcome into the campaign: merges drained edges into the
  // global coverage map, records/dedups bugs, admits the program to the corpus
  // when it found new edges (crediting the submitting worker's generator), bumps
  // the exec counter, and advances the sampled series to the campaign frontier.
  // `elapsed` is the submitting worker's session time after the execution.
  void OnOutcome(const fuzz::Program& program, const ExecOutcome& outcome,
                 fuzz::Generator& generator, VirtualTime elapsed, int worker);

  // Marks a worker's session finished so it no longer holds back the sample
  // frontier (its clock stops at the budget).
  void OnWorkerDone(int worker);

  // Pads the series, folds the summed executor stats in, and returns the result.
  // `link` is the campaign's summed per-board debug-port traffic.
  CampaignResult Finalize(const ExecStats& stats, VirtualTime elapsed,
                          const DebugPortStats& link = DebugPortStats());

  size_t CorpusSize() const;

  // The campaign registry's instruments, snapshotted under the campaign lock so a
  // farm_snapshot row reads one consistent cut.
  telemetry::MetricsSnapshot Snapshot() const;

  // First sightings the validator rejected (copies, read under the lock). Exposed
  // for tests asserting that rejected bugs are remembered for dedup but kept out
  // of the result table.
  std::vector<BugReport> RejectedBugs() const;

  // --- Fleet sync hooks (src/fleet) ---
  // None of these run during a single-worker fleet batch with empty payloads, so
  // the in-process bit-identity contract is untouched.

  // Full coverage snapshot / fresh-edge diff since the last take (requires
  // track_coverage_delta), in the coverage_serial wire format.
  std::vector<uint8_t> SerializeCoverageSnapshot() const;
  std::vector<uint8_t> TakeCoverageDelta();
  // Folds a peer's blob into the campaign map; returns edges new here. Remote
  // edges are not re-logged into the delta (the peer already has them).
  Result<size_t> MergeRemoteCoverage(const std::vector<uint8_t>& blob);
  // Corpus delta export as (reproducer text, new_edges) pairs; returns the next
  // cursor. Pass UINT64_MAX once to learn the current cursor without copying.
  uint64_t ExportCorpusSince(uint64_t from_seq,
                             std::vector<std::pair<std::string, uint64_t>>* out) const;
  // Admits peer programs (hash-deduplicated, no generator credit); returns how
  // many were new.
  size_t AdmitRemotePrograms(
      const std::vector<std::pair<std::string, uint64_t>>& entries);
  // Confirmed bugs admitted at index >= `from` (upload cursor for fleet sync).
  std::vector<BugReport> BugsSince(size_t from) const;

 private:
  // Maps a local worker slot to its campaign-global shard label.
  int ShardLabel(int worker) const;
  void RecordBugLocked(const BugSignature& signature, const fuzz::Program& program,
                       const ExecOutcome& outcome, uint64_t coverage_delta,
                       VirtualTime elapsed, int worker);
  void AdvanceFrontierLocked(int worker, VirtualTime elapsed);
  void EmitEventLocked(VirtualTime at, const char* type, int worker,
                       std::vector<telemetry::EventField> fields);

  const spec::CompiledSpecs& specs_;
  Options options_;

  std::unique_ptr<telemetry::MetricsRegistry> owned_registry_;  // set iff none was passed
  telemetry::MetricsRegistry* registry_ = nullptr;  // options_.registry or the owned one
  telemetry::EventSink* sink_ = nullptr;
  telemetry::Counter* execs_ = nullptr;
  telemetry::Counter* crashes_ = nullptr;
  telemetry::Counter* bugs_found_ = nullptr;
  telemetry::Counter* bug_dedup_hits_ = nullptr;
  telemetry::Counter* bugs_rejected_ = nullptr;
  telemetry::Counter* validation_replays_ = nullptr;
  telemetry::Counter* fresh_edges_ = nullptr;
  telemetry::Counter* corpus_adds_ = nullptr;
  telemetry::Counter* trim_removed_calls_ = nullptr;
  telemetry::Counter* trim_kept_calls_ = nullptr;
  telemetry::Gauge* coverage_gauge_ = nullptr;
  telemetry::Gauge* corpus_gauge_ = nullptr;

  mutable std::mutex mu_;
  fuzz::Corpus corpus_;
  CoverageMap coverage_;
  SeriesSampler sampler_;
  CampaignResult result_;
  // Validator-rejected first sightings. Kept so a rejected signature re-triggering
  // dedups instead of burning another validation replay on the same artifact.
  std::vector<BugReport> rejected_bugs_;
  std::vector<VirtualTime> worker_elapsed_;
  std::vector<bool> worker_done_;
  // Fleet state: exact log of locally discovered fresh edges since the last
  // TakeCoverageDelta.
  std::vector<uint64_t> coverage_delta_log_;
};

// Shared loop glue: encodes `program` for the agent mailbox, trimming tail calls
// until it fits. Returns false when nothing is left to run (caller skips the case).
bool EncodeForMailbox(const spec::CompiledSpecs& specs, fuzz::Program* program,
                      std::vector<uint8_t>* encoded);

}  // namespace eof

#endif  // SRC_CORE_SCHEDULER_H_
