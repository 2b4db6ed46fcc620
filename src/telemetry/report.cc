#include "src/telemetry/report.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <variant>

#include "src/common/strings.h"
#include "src/telemetry/journal.h"

namespace eof {
namespace telemetry {

namespace {

// One visitor out of several lambdas, for std::visit over AnyRow.
template <class... Handlers>
struct Overloaded : Handlers... {
  using Handlers::operator()...;
};
template <class... Handlers>
Overloaded(Handlers...) -> Overloaded<Handlers...>;

}  // namespace

CampaignReport BuildReport(const std::vector<JournalRow>& rows) {
  CampaignReport report;
  bool saw_start = false;
  bool saw_end = false;
  bool saw_fleet_start = false;
  uint64_t snapshot_bugs = 0;
  std::map<int, BoardAccounting> boards;
  std::map<int, uint64_t> dedup_hits;

  auto fleet_row = [&](uint64_t* counter) {
    report.fleet.present = true;
    ++*counter;
  };
  // The campaign truths both farm rows carry.
  auto fold_farm = [&](VirtualTime at, const CampaignColumns& campaign,
                       double execs_per_vsec, uint64_t journal_dropped) {
    report.series.push_back({at, campaign.campaign_coverage, campaign.campaign_execs,
                             execs_per_vsec});
    report.end = at;
    report.final_coverage = campaign.campaign_coverage;
    report.final_execs = campaign.campaign_execs;
    report.crashes = campaign.crashes;
    report.corpus = campaign.corpus;
    snapshot_bugs = campaign.bugs;
    report.trim_removed_calls = campaign.trim_removed_calls;
    report.trim_kept_calls = campaign.trim_kept_calls;
    report.journal_dropped = std::max(report.journal_dropped, journal_dropped);
  };

  for (const JournalRow& row : rows) {
    Result<AnyRow> typed = DecodeRow(row);
    if (!typed.ok()) {
      report.warnings.push_back(typed.status().message());
      continue;
    }
    std::visit(
        Overloaded{
            [&](const CampaignStartRow& start) {
              saw_start = true;
              // Merged fleet journals hold one campaign_start per process; the
              // orchestrator's (fleet=1) is the campaign envelope, worker rows only
              // describe their own batch and never override it.
              bool envelope = start.fleet != 0;
              report.fleet.present = report.fleet.present || envelope;
              if (!saw_fleet_start) {
                saw_fleet_start = envelope;
                report.os = start.os;
                report.board = start.board;
                report.workers = start.workers;
                report.seed = start.seed;
                report.budget = start.budget_us;
                report.interval = start.interval_us;
              }
              if (report.campaign.empty()) {
                report.campaign = start.campaign;
              }
            },
            [&](const FarmSnapshotRow& farm) {
              fold_farm(row.at, farm.campaign, farm.board.execs_per_vsec,
                        farm.journal_dropped);
            },
            [&](const FleetFarmSnapshotRow& farm) {
              fold_farm(row.at, farm.campaign, farm.execs_per_vsec, farm.journal_dropped);
            },
            [&](const BoardAccounting& board) {
              BoardAccounting& last = boards[row.worker];
              last = board;
              last.worker = row.worker;
              last.clock = row.at;
            },
            [&](const BugReport& sighting) {
              ReportedBug entry{sighting};
              entry.bug.at = row.at;
              // Validation-rejected sightings stay out of the bug table (they would
              // also break the snapshot-vs-journal bug count consistency check
              // below).
              if (sighting.snapshot_validation == "rejected") {
                report.rejected_bugs.push_back(std::move(entry));
              } else {
                report.bugs.push_back(std::move(entry));
              }
            },
            [&](const BugDedupRow& dedup) { ++dedup_hits[dedup.catalog_id]; },
            [&](const LivenessResetRow& reset) {
              ++report.resets_by_reason[reset.reason];
              ++report.restores_by_mode[reset.restore];
            },
            [&](const CrashDumpRow&) { ++report.crash_dumps; },
            [&](const CampaignEndRow& end) {
              saw_end = true;
              // Merged journals carry one campaign_end per process; the campaign
              // ends when the last one does.
              report.end = std::max(report.end, row.at);
              report.journal_dropped = std::max(report.journal_dropped, end.journal_dropped);
            },
            [&](const LeaseGrantRow&) { fleet_row(&report.fleet.leases_granted); },
            [&](const LeaseCompleteRow&) { fleet_row(&report.fleet.leases_completed); },
            [&](const LeaseReclaimRow&) { fleet_row(&report.fleet.leases_reclaimed); },
            [&](const WorkerLostRow&) { fleet_row(&report.fleet.workers_lost); },
            [&](const HeartbeatRow&) { fleet_row(&report.fleet.heartbeats); },
            [&](const CorpusSyncRow&) { fleet_row(&report.fleet.corpus_syncs); },
            [&](const WorkerFinalRow&) { fleet_row(&report.fleet.worker_finals); },
            // bug, new_coverage, trim, delta_reflash, span and the rotation markers
            // carry no report state the rows above do not already cover.
            [](const auto&) {},
        },
        typed.value());
  }
  if (report.fleet.present) {
    // Independent workers can journal the same bug (each keeps its own first
    // sighting; the orchestrator never sends bugs back). Fold sightings by the
    // one identity rule, as the orchestrator's own admission does: the first row
    // wins, later rows count as duplicates.
    auto fold = [](std::vector<ReportedBug>* bugs) {
      std::vector<ReportedBug> kept;
      for (ReportedBug& entry : *bugs) {
        auto same = std::find_if(kept.begin(), kept.end(), [&](const ReportedBug& first) {
          return SameBug(first.bug, entry.bug);
        });
        if (same == kept.end()) {
          kept.push_back(std::move(entry));
        } else {
          same->duplicates += 1 + entry.duplicates;
        }
      }
      *bugs = std::move(kept);
    };
    fold(&report.bugs);
    fold(&report.rejected_bugs);
  }

  for (auto& [catalog_id, hits] : dedup_hits) {
    bool credited = false;
    for (ReportedBug& entry : report.bugs) {
      if (entry.bug.catalog_id == catalog_id) {
        entry.duplicates += hits;
        credited = true;
        break;  // dedup rows only carry the catalog id; credit the first sighting
      }
    }
    if (!credited) {
      // Rejected sightings dedup too — re-triggers of an artifact stay with it.
      for (ReportedBug& entry : report.rejected_bugs) {
        if (entry.bug.catalog_id == catalog_id) {
          entry.duplicates += hits;
          break;
        }
      }
    }
  }
  for (auto& [worker, board] : boards) {
    report.boards.push_back(board);
  }
  report.bugs_found = report.bugs.size();

  if (!saw_start) {
    report.warnings.push_back("journal has no campaign_start row");
  }
  if (!saw_end) {
    report.warnings.push_back(
        "journal has no campaign_end row - the campaign was cut short or the file is "
        "truncated; every number below is a lower bound");
  }
  if (report.journal_dropped > 0) {
    report.warnings.push_back(StrFormat(
        "the journal sink dropped %llu rows - counts derived from the journal are "
        "lower bounds",
        static_cast<unsigned long long>(report.journal_dropped)));
  }
  if (saw_end && snapshot_bugs != report.bugs.size()) {
    report.warnings.push_back(StrFormat(
        "final snapshot counted %llu bugs but the journal holds %zu bug_report rows",
        static_cast<unsigned long long>(snapshot_bugs), report.bugs.size()));
  }
  return report;
}

namespace {

double VirtualSeconds(VirtualTime t) {
  return static_cast<double>(t) / kVirtualSecond;
}

double Percent(uint64_t part, uint64_t whole) {
  if (whole == 0) {
    return 0;
  }
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

// Indents every line of `text` by four spaces (for embedding multi-line journal
// columns in the text report).
std::string Indent(const std::string& text) {
  std::string out;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    out += "    ";
    out.append(text, begin, end - begin);
    out += '\n';
    if (end == text.size()) {
      break;
    }
    begin = end + 1;
  }
  return out;
}

// The last `keep` lines of a newline-joined column.
std::string TailLines(const std::string& text, size_t keep) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  if (lines.size() <= keep) {
    return text;
  }
  std::vector<std::string> tail(lines.end() - static_cast<long>(keep), lines.end());
  return StrJoin(tail, "\n");
}

}  // namespace

std::string CampaignReport::RenderText() const {
  std::string out = "EOF campaign report\n";
  out += StrFormat("  os=%s board=%s workers=%llu seed=%llu\n", os.c_str(), board.c_str(),
                   static_cast<unsigned long long>(workers),
                   static_cast<unsigned long long>(seed));
  out += StrFormat("  budget=%.1fvs interval=%.1fvs end=%.1fvs\n",
                   VirtualSeconds(budget), VirtualSeconds(interval), VirtualSeconds(end));
  out += StrFormat(
      "  coverage=%llu execs=%llu crashes=%llu bugs=%llu rejected=%zu corpus=%llu "
      "crash_dumps=%llu\n",
      static_cast<unsigned long long>(final_coverage),
      static_cast<unsigned long long>(final_execs),
      static_cast<unsigned long long>(crashes),
      static_cast<unsigned long long>(bugs_found),
      rejected_bugs.size(),
      static_cast<unsigned long long>(corpus),
      static_cast<unsigned long long>(crash_dumps));

  if (!warnings.empty()) {
    out += "\n-- warnings --\n";
    for (const std::string& warning : warnings) {
      out += StrFormat("  WARNING: %s\n", warning.c_str());
    }
  }

  out += "\n-- coverage over time --\n";
  out += "      t_vs   coverage      execs   execs/vs\n";
  for (const ReportSample& sample : series) {
    out += StrFormat("%10.1f %10llu %10llu %10.2f\n", VirtualSeconds(sample.at),
                     static_cast<unsigned long long>(sample.coverage),
                     static_cast<unsigned long long>(sample.execs),
                     sample.execs_per_vsec);
  }

  out += "\n-- board time accounting --\n";
  out += "board   clock_vs      execs   snap  exec% drain% flash% recov% deploy% other%\n";
  for (const BoardAccounting& b : boards) {
    out += StrFormat("%5d %10.1f %10llu %6llu %6.1f %6.1f %6.1f %6.1f %7.1f %6.1f\n",
                     b.worker, VirtualSeconds(b.clock),
                     static_cast<unsigned long long>(b.execs),
                     static_cast<unsigned long long>(b.snapshot_restores),
                     Percent(b.exec_us, b.clock), Percent(b.drain_us, b.clock),
                     Percent(b.reflash_us, b.clock), Percent(b.recovery_us, b.clock),
                     Percent(b.deploy_us, b.clock), Percent(b.OtherUs(), b.clock));
  }

  // Attribution section only when the campaign produced any attribution signal.
  uint64_t total_overlapped = 0;
  uint64_t total_saved_us = 0;
  for (const BoardAccounting& b : boards) {
    total_overlapped += b.overlapped_drains;
    total_saved_us += b.drain_overlap_saved_us;
  }
  if (trim_removed_calls > 0 || trim_kept_calls > 0 || total_overlapped > 0) {
    out += "\n-- coverage attribution --\n";
    uint64_t trim_total = trim_kept_calls + trim_removed_calls;
    out += StrFormat("  trim: kept=%llu removed=%llu (%.1f%% of attributed calls)\n",
                     static_cast<unsigned long long>(trim_kept_calls),
                     static_cast<unsigned long long>(trim_removed_calls),
                     Percent(trim_removed_calls, trim_total));
    out += StrFormat("  drain overlap: %llu drains rode a continue, saving %.1fvs\n",
                     static_cast<unsigned long long>(total_overlapped),
                     VirtualSeconds(total_saved_us));
  }

  if (fleet.present) {
    out += "\n-- fleet --\n";
    if (!campaign.empty()) {
      out += StrFormat("  campaign=%s\n", campaign.c_str());
    }
    out += StrFormat(
        "  leases: granted=%llu completed=%llu reclaimed=%llu\n",
        static_cast<unsigned long long>(fleet.leases_granted),
        static_cast<unsigned long long>(fleet.leases_completed),
        static_cast<unsigned long long>(fleet.leases_reclaimed));
    out += StrFormat(
        "  workers: lost=%llu finals=%llu heartbeats=%llu corpus_syncs=%llu\n",
        static_cast<unsigned long long>(fleet.workers_lost),
        static_cast<unsigned long long>(fleet.worker_finals),
        static_cast<unsigned long long>(fleet.heartbeats),
        static_cast<unsigned long long>(fleet.corpus_syncs));
  }

  if (!resets_by_reason.empty()) {
    out += "\n-- liveness resets --\n";
    for (const auto& [reason, count] : resets_by_reason) {
      out += StrFormat("  %-22s %llu\n", reason.c_str(),
                       static_cast<unsigned long long>(count));
    }
    out += "  by restore mode:\n";
    for (const auto& [mode, count] : restores_by_mode) {
      out += StrFormat("    %-20s %llu\n", mode.c_str(),
                       static_cast<unsigned long long>(count));
    }
  }

  out += StrFormat("\n-- bugs (%zu deduped) --\n", bugs.size());
  for (const auto& [bug, duplicates] : bugs) {
    out += StrFormat(
        "bug #%d [%s/%s] op=%s board=%d first_exec=%llu seed_stream=%llu "
        "cov_delta=%llu t_vs=%.1f dups=%llu validation=%s restore=%s\n",
        bug.catalog_id, bug.detector.c_str(), bug.kind.c_str(),
        bug.operation.empty() ? "?" : bug.operation.c_str(), bug.board,
        static_cast<unsigned long long>(bug.first_exec),
        static_cast<unsigned long long>(bug.seed_stream),
        static_cast<unsigned long long>(bug.coverage_delta), VirtualSeconds(bug.at),
        static_cast<unsigned long long>(duplicates),
        bug.snapshot_validation.empty() ? "not_checked" : bug.snapshot_validation.c_str(),
        bug.last_restore.empty() ? "none" : bug.last_restore.c_str());
    out += "  excerpt:\n";
    out += Indent(TailLines(bug.excerpt, 4));
    out += "  program:\n";
    out += Indent(bug.program_text);
    out += StrFormat("  dump[%s] uart tail:\n", bug.dump_reason.c_str());
    out += Indent(TailLines(bug.uart_tail, 8));
    out += "  dump port ops (tail):\n";
    out += Indent(TailLines(bug.port_ops, 8));
    out += "  dump events (tail):\n";
    out += Indent(TailLines(bug.events, 8));
  }

  if (!rejected_bugs.empty()) {
    out += StrFormat("\n-- rejected sightings (%zu, failed cold-boot validation) --\n",
                     rejected_bugs.size());
    for (const auto& [bug, duplicates] : rejected_bugs) {
      out += StrFormat(
          "sighting #%d [%s/%s] board=%d first_exec=%llu restore=%s dups=%llu\n",
          bug.catalog_id, bug.detector.c_str(), bug.kind.c_str(), bug.board,
          static_cast<unsigned long long>(bug.first_exec),
          bug.last_restore.empty() ? "none" : bug.last_restore.c_str(),
          static_cast<unsigned long long>(duplicates));
      out += "  excerpt:\n";
      out += Indent(TailLines(bug.excerpt, 4));
      out += "  program:\n";
      out += Indent(bug.program_text);
    }
  }
  return out;
}

std::string CampaignReport::RenderJson() const {
  std::string out = "{";
  JsonWriter json(&out);
  json("os", os)("board", board)("workers", workers)("seed", seed)("budget_us", budget)(
      "interval_us", interval)("end_us", end)("coverage", final_coverage)("execs", final_execs)(
      "crashes", crashes)("bugs_found", bugs_found)("bugs_rejected", rejected_bugs.size())(
      "corpus", corpus)("journal_dropped", journal_dropped)("crash_dumps", crash_dumps);

  out += ",\n\"series\":[";
  for (const ReportSample& sample : series) {
    out += out.back() == '[' ? "{" : ",{";
    json("t_us", sample.at)("coverage", sample.coverage)("execs", sample.execs)(
        "execs_per_vsec", sample.execs_per_vsec);
    out += '}';
  }
  out += "]";

  out += ",\n\"boards\":[";
  for (const BoardAccounting& b : boards) {
    out += out.back() == '[' ? "{" : ",{";
    json("worker", b.worker)("clock_us", b.clock)("execs", b.execs)("restores", b.restores)(
        "snapshot_restores", b.snapshot_restores)("stalls", b.stalls)("timeouts", b.timeouts)(
        "exec_us", b.exec_us)("drain_us", b.drain_us)("reflash_us", b.reflash_us)(
        "recovery_us", b.recovery_us)("deploy_us", b.deploy_us)("other_us", b.OtherUs());
    // Overlap keys only when the board actually overlapped drains.
    if (b.overlapped_drains > 0) {
      json("overlapped_drains", b.overlapped_drains)("drain_overlap_saved_us",
                                                      b.drain_overlap_saved_us);
    }
    out += '}';
  }
  out += "]";

  uint64_t total_overlapped = 0;
  uint64_t total_saved_us = 0;
  for (const BoardAccounting& b : boards) {
    total_overlapped += b.overlapped_drains;
    total_saved_us += b.drain_overlap_saved_us;
  }
  if (trim_removed_calls > 0 || trim_kept_calls > 0 || total_overlapped > 0) {
    out += ",\n\"attribution\":{";
    json("trim_kept_calls", trim_kept_calls)("trim_removed_calls", trim_removed_calls)(
        "overlapped_drains", total_overlapped)("drain_overlap_saved_us", total_saved_us);
    out += "}";
  }

  // Fleet object only for fleet journals.
  if (fleet.present) {
    out += ",\n\"fleet\":{";
    json("campaign", campaign)("leases_granted", fleet.leases_granted)(
        "leases_completed", fleet.leases_completed)("leases_reclaimed", fleet.leases_reclaimed)(
        "workers_lost", fleet.workers_lost)("worker_finals", fleet.worker_finals)(
        "heartbeats", fleet.heartbeats)("corpus_syncs", fleet.corpus_syncs);
    out += "}";
  }

  // Count maps keyed by journal strings (reset reasons, restore modes).
  auto append_counts = [&out](const char* name, const std::map<std::string, uint64_t>& counts) {
    out += StrFormat(",\n\"%s\":{", name);
    for (const auto& [key, count] : counts) {
      out += StrFormat("%s\"%s\":%llu", out.back() == '{' ? "" : ",", JsonEscape(key).c_str(),
                       static_cast<unsigned long long>(count));
    }
    out += "}";
  };
  append_counts("resets", resets_by_reason);
  append_counts("restores_by_mode", restores_by_mode);

  auto append_bugs = [&out, &json](const char* name, const std::vector<ReportedBug>& list) {
    out += StrFormat(",\n\"%s\":[", name);
    for (const auto& [bug, duplicates] : list) {
      out += out.back() == '[' ? "{" : ",{";
      json("catalog_id", bug.catalog_id)("detector", bug.detector)("kind", bug.kind)(
          "operation", bug.operation)("excerpt", bug.excerpt)("program", bug.program_text)(
          "t_us", bug.at)("first_exec", bug.first_exec)("board", bug.board)(
          "seed_stream", bug.seed_stream)("coverage_delta", bug.coverage_delta)(
          "duplicates", duplicates)(
          "snapshot_validation",
          bug.snapshot_validation.empty() ? "not_checked" : bug.snapshot_validation)(
          "last_restore", bug.last_restore.empty() ? "none" : bug.last_restore)(
          "dump_reason", bug.dump_reason)("uart_tail", bug.uart_tail)("port_ops", bug.port_ops)(
          "events", bug.events);
      out += '}';
    }
    out += "]";
  };
  append_bugs("bugs", bugs);
  append_bugs("rejected_bugs", rejected_bugs);

  out += ",\n\"warnings\":[";
  for (const std::string& warning : warnings) {
    out += StrFormat("%s\"%s\"", out.back() == '[' ? "" : ",", JsonEscape(warning).c_str());
  }
  out += "]}\n";
  return out;
}

namespace {

Result<std::vector<JournalRow>> LoadJournalRows(const std::string& path) {
  FILE* file = fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError(StrFormat("cannot open journal '%s'", path.c_str()));
  }
  std::string text;
  char buffer[1 << 16];
  size_t got;
  while ((got = fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  bool read_error = ferror(file) != 0;
  fclose(file);
  if (read_error) {
    return UnavailableError(StrFormat("error reading journal '%s'", path.c_str()));
  }
  auto rows = ParseJournal(text);
  if (!rows.ok()) {
    return InvalidArgumentError(
        StrFormat("%s: %s", path.c_str(), rows.status().message().c_str()));
  }
  return std::move(rows).value();
}

}  // namespace

Result<CampaignReport> LoadReportFromFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::vector<JournalRow> rows, LoadJournalRows(path));
  return BuildReport(rows);
}

Result<std::vector<JournalRow>> LoadMergedJournalRows(
    const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return InvalidArgumentError("no journal files to merge");
  }
  // Group files into streams: a file opening with a journal_segment header is
  // the next rotated segment of the previous file's stream and concatenates
  // onto it; anything else starts a stream of its own.
  std::vector<std::vector<JournalRow>> streams;
  std::string campaign_id;
  std::string campaign_owner;  // path that established campaign_id
  for (const std::string& path : paths) {
    ASSIGN_OR_RETURN(std::vector<JournalRow> rows, LoadJournalRows(path));
    for (const JournalRow& row : rows) {
      if (row.type != CampaignStartRow::kType) {
        continue;
      }
      Result<AnyRow> start = DecodeRow(row);
      const std::string& id = std::get<CampaignStartRow>(start.value()).campaign;
      if (id.empty()) {
        continue;
      }
      if (campaign_id.empty()) {
        campaign_id = id;
        campaign_owner = path;
      } else if (id != campaign_id) {
        return InvalidArgumentError(StrFormat(
            "mixed campaign ids: '%s' (%s) vs '%s' (%s) - merge only journals "
            "from one campaign",
            campaign_id.c_str(), campaign_owner.c_str(), id.c_str(),
            path.c_str()));
      }
    }
    bool continuation = !rows.empty() && rows.front().type == JournalSegmentRow::kType &&
                        !streams.empty();
    if (continuation) {
      std::vector<JournalRow>& stream = streams.back();
      stream.insert(stream.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
    } else {
      streams.push_back(std::move(rows));
    }
  }
  if (streams.size() == 1) {
    // One stream (a single journal, possibly rotated): file order IS the
    // journal order. No sort — rotated segments must reproduce the unrotated
    // report bit-for-bit, and journal rows are not globally time-monotone.
    return std::move(streams.front());
  }
  std::vector<JournalRow> merged;
  for (std::vector<JournalRow>& stream : streams) {
    merged.insert(merged.end(), std::make_move_iterator(stream.begin()),
                  std::make_move_iterator(stream.end()));
  }
  // One virtual timeline: sort by timestamp, stably, so rows that share an
  // instant keep their per-stream order.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const JournalRow& a, const JournalRow& b) {
                     return a.at < b.at;
                   });
  return merged;
}

Result<CampaignReport> LoadMergedReportFromFiles(
    const std::vector<std::string>& paths) {
  ASSIGN_OR_RETURN(std::vector<JournalRow> rows, LoadMergedJournalRows(paths));
  return BuildReport(rows);
}

}  // namespace telemetry
}  // namespace eof
