#include "src/telemetry/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "src/common/strings.h"
#include "src/telemetry/journal.h"

namespace eof {
namespace telemetry {

uint64_t JournalRow::Uint(const std::string& key, uint64_t fallback) const {
  auto it = uints.find(key);
  if (it != uints.end()) {
    return it->second;
  }
  auto real_it = reals.find(key);
  if (real_it != reals.end() && real_it->second >= 0) {
    return static_cast<uint64_t>(real_it->second);
  }
  return fallback;
}

double JournalRow::Real(const std::string& key, double fallback) const {
  auto it = reals.find(key);
  if (it != reals.end()) {
    return it->second;
  }
  auto uint_it = uints.find(key);
  if (uint_it != uints.end()) {
    return static_cast<double>(uint_it->second);
  }
  return fallback;
}

const std::string& JournalRow::Text(const std::string& key) const {
  static const std::string kEmpty;
  auto it = texts.find(key);
  return it == texts.end() ? kEmpty : it->second;
}

bool JournalRow::Has(const std::string& key) const {
  return uints.count(key) > 0 || reals.count(key) > 0 || texts.count(key) > 0;
}

namespace {

// Minimal strict parser for the flat JSON objects Event::ToJsonLine emits: string
// keys, and string / unsigned / real values. Anything nested is a parse error —
// the journal never produces it, so seeing it means the file is not a journal.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  Status Parse(JournalRow* row) {
    SkipSpace();
    if (!Consume('{')) {
      return InvalidArgumentError("expected '{'");
    }
    SkipSpace();
    if (Consume('}')) {
      return FinishRow(row);
    }
    while (true) {
      std::string key;
      RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) {
        return InvalidArgumentError("expected ':' after key '" + key + "'");
      }
      SkipSpace();
      RETURN_IF_ERROR(ParseValue(key, row));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) {
        break;
      }
      return InvalidArgumentError("expected ',' or '}' after value of '" + key + "'");
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("trailing characters after object");
    }
    return FinishRow(row);
  }

 private:
  Status FinishRow(JournalRow* row) {
    auto type_it = row->texts.find("type");
    if (type_it == row->texts.end()) {
      return InvalidArgumentError("row has no \"type\" key");
    }
    row->type = type_it->second;
    row->texts.erase(type_it);
    auto at_it = row->uints.find("t_us");
    if (at_it != row->uints.end()) {
      row->at = at_it->second;
      row->uints.erase(at_it);
    }
    auto worker_it = row->uints.find("worker");
    if (worker_it != row->uints.end()) {
      row->worker = static_cast<int>(worker_it->second);
      row->uints.erase(worker_it);
    }
    return OkStatus();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return InvalidArgumentError("expected '\"'");
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return InvalidArgumentError("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return InvalidArgumentError("bad \\u escape digit");
            }
          }
          // The journal only escapes control bytes; encode anything else as UTF-8.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return InvalidArgumentError(StrFormat("bad escape '\\%c'", esc));
      }
    }
    return InvalidArgumentError("unterminated string");
  }

  Status ParseValue(const std::string& key, JournalRow* row) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      std::string value;
      RETURN_IF_ERROR(ParseString(&value));
      row->texts[key] = std::move(value);
      return OkStatus();
    }
    size_t start = pos_;
    bool real = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        real = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return InvalidArgumentError("expected a string or number value for '" + key +
                                  "' (the journal holds nothing else)");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (real || token[0] == '-') {
      double value = std::strtod(token.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return InvalidArgumentError("malformed number '" + token + "'");
      }
      row->reals[key] = value;
      return OkStatus();
    }
    uint64_t value = std::strtoull(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return InvalidArgumentError("malformed number '" + token + "'");
    }
    row->uints[key] = value;
    return OkStatus();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JournalRow> ParseJournalLine(std::string_view line) {
  JournalRow row;
  RETURN_IF_ERROR(LineParser(line).Parse(&row));
  return row;
}

Result<std::vector<JournalRow>> ParseJournal(std::string_view text) {
  std::vector<JournalRow> rows;
  size_t line_number = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    ++line_number;
    std::string_view line = StripWhitespace(text.substr(begin, end - begin));
    if (!line.empty()) {
      auto row = ParseJournalLine(line);
      if (!row.ok()) {
        return InvalidArgumentError(StrFormat(
            "line %zu: %s", line_number, row.status().message().c_str()));
      }
      rows.push_back(std::move(row).value());
    }
    if (end == text.size()) {
      break;
    }
    begin = end + 1;
  }
  return rows;
}

uint64_t BoardAccounting::OtherUs() const {
  // recovery_us already contains any reflash performed during recovery, so the
  // attributed total counts reflash time only once (standalone reflashes outside a
  // recovery span do not occur in the current executor, but guard anyway).
  uint64_t attributed = exec_us + drain_us + recovery_us + deploy_us;
  uint64_t standalone_reflash = reflash_us > recovery_us ? reflash_us - recovery_us : 0;
  attributed += standalone_reflash;
  return clock > attributed ? clock - attributed : 0;
}

CampaignReport BuildReport(const std::vector<JournalRow>& rows) {
  CampaignReport report;
  bool saw_start = false;
  bool saw_end = false;
  bool saw_fleet_start = false;
  uint64_t snapshot_bugs = 0;
  std::map<int, BoardAccounting> boards;
  std::map<int, uint64_t> dedup_hits;

  for (const JournalRow& row : rows) {
    if (row.type == "campaign_start") {
      saw_start = true;
      // Merged fleet journals hold one campaign_start per process; the
      // orchestrator's (fleet=1) is the campaign envelope, worker rows only
      // describe their own batch and never override it.
      bool fleet_row = row.Uint("fleet") != 0;
      if (fleet_row) {
        report.fleet.present = true;
      }
      if (!saw_fleet_start) {
        saw_fleet_start = fleet_row;
        report.os = row.Text("os");
        report.board = row.Text("board");
        report.workers = row.Uint("workers");
        report.seed = row.Uint("seed");
        report.budget = row.Uint("budget_us");
        report.interval = row.Uint("interval_us");
      }
      if (report.campaign.empty()) {
        report.campaign = row.Text("campaign");
      }
    } else if (row.type == "farm_snapshot") {
      ReportSample sample;
      sample.at = row.at;
      sample.coverage =
          row.Has("campaign_coverage") ? row.Uint("campaign_coverage") : row.Uint("coverage");
      sample.execs =
          row.Has("campaign_execs") ? row.Uint("campaign_execs") : row.Uint("execs");
      sample.execs_per_vsec = row.Real("execs_per_vsec");
      report.series.push_back(sample);
      report.end = row.at;
      report.final_coverage = sample.coverage;
      report.final_execs = sample.execs;
      report.crashes = row.Uint("crashes");
      report.corpus = row.Uint("corpus");
      snapshot_bugs = row.Uint("bugs");
      report.trim_removed_calls = row.Uint("trim_removed_calls");
      report.trim_kept_calls = row.Uint("trim_kept_calls");
      if (row.Uint("journal_dropped") > report.journal_dropped) {
        report.journal_dropped = row.Uint("journal_dropped");
      }
    } else if (row.type == "board_snapshot") {
      BoardAccounting& board = boards[row.worker];
      board.worker = row.worker;
      board.clock = row.at;
      board.execs = row.Uint("execs");
      board.restores = row.Uint("restores");
      board.snapshot_restores = row.Uint("snapshot_restores");
      board.stalls = row.Uint("stalls");
      board.timeouts = row.Uint("timeouts");
      board.exec_us = row.Uint("exec_us");
      board.drain_us = row.Uint("drain_us");
      board.reflash_us = row.Uint("reflash_us");
      board.recovery_us = row.Uint("recovery_us");
      board.deploy_us = row.Uint("deploy_us");
      board.overlapped_drains = row.Uint("overlapped_drains");
      board.drain_overlap_saved_us = row.Uint("drain_overlap_saved_us");
    } else if (row.type == "bug_report") {
      ReportBug bug;
      bug.catalog_id = static_cast<int>(row.Uint("catalog_id"));
      bug.detector = row.Text("detector");
      bug.kind = row.Text("kind");
      bug.operation = row.Text("operation");
      bug.excerpt = row.Text("excerpt");
      bug.program = row.Text("program");
      bug.at = row.at;
      bug.first_exec = row.Uint("first_exec");
      bug.board = static_cast<int>(row.Uint("board"));
      bug.seed_stream = row.Uint("seed_stream");
      bug.coverage_delta = row.Uint("coverage_delta");
      bug.snapshot_validation = row.Text("snapshot_validation");
      bug.last_restore = row.Text("last_restore");
      bug.dump_reason = row.Text("dump_reason");
      bug.uart_tail = row.Text("uart_tail");
      bug.port_ops = row.Text("port_ops");
      bug.events = row.Text("events");
      // Validation-rejected sightings stay out of the bug table (they would also
      // break the snapshot-vs-journal bug count consistency check below).
      if (bug.snapshot_validation == "rejected") {
        report.rejected_bugs.push_back(std::move(bug));
      } else {
        report.bugs.push_back(std::move(bug));
      }
    } else if (row.type == "bug_dedup") {
      ++dedup_hits[static_cast<int>(row.Uint("catalog_id"))];
    } else if (row.type == "liveness_reset") {
      ++report.resets_by_reason[row.Text("reason")];
      // Pre-snapshot journals have no "restore" field; those were all cold reboots.
      const std::string& mode = row.Text("restore");
      ++report.restores_by_mode[mode.empty() ? "cold" : mode];
    } else if (row.type == "crash_dump") {
      ++report.crash_dumps;
    } else if (row.type == "campaign_end") {
      saw_end = true;
      // Merged journals carry one campaign_end per process; the campaign ends
      // when the last one does.
      if (row.at > report.end) {
        report.end = row.at;
      }
      if (row.Uint("journal_dropped") > report.journal_dropped) {
        report.journal_dropped = row.Uint("journal_dropped");
      }
    } else if (row.type == "lease_grant") {
      report.fleet.present = true;
      ++report.fleet.leases_granted;
    } else if (row.type == "lease_complete") {
      report.fleet.present = true;
      ++report.fleet.leases_completed;
    } else if (row.type == "lease_reclaim") {
      report.fleet.present = true;
      ++report.fleet.leases_reclaimed;
    } else if (row.type == "worker_lost") {
      report.fleet.present = true;
      ++report.fleet.workers_lost;
    } else if (row.type == "heartbeat") {
      report.fleet.present = true;
      ++report.fleet.heartbeats;
    } else if (row.type == "corpus_sync") {
      report.fleet.present = true;
      ++report.fleet.corpus_syncs;
    } else if (row.type == "worker_final") {
      report.fleet.present = true;
      ++report.fleet.worker_finals;
    }
    // "bug", "new_coverage", "span", and future row types carry no report state the
    // rows above do not already cover.
  }

  if (report.fleet.present) {
    // Independent workers can journal the same deduplicated bug (each keeps its
    // own sighting until the next sync folds the orchestrator's table back in).
    // Merge sightings by identity key — earliest virtual time wins, later rows
    // count as duplicates — mirroring the orchestrator's own bug admission.
    auto fold = [](std::vector<ReportBug>* bugs) {
      std::map<std::string, size_t> first_by_key;
      std::vector<ReportBug> kept;
      for (ReportBug& bug : *bugs) {
        std::string key = StrFormat("%d|%s", bug.catalog_id, bug.excerpt.c_str());
        auto it = first_by_key.find(key);
        if (it == first_by_key.end()) {
          first_by_key.emplace(std::move(key), kept.size());
          kept.push_back(std::move(bug));
        } else {
          kept[it->second].duplicates += 1 + bug.duplicates;
        }
      }
      *bugs = std::move(kept);
    };
    fold(&report.bugs);
    fold(&report.rejected_bugs);
  }

  for (auto& [catalog_id, hits] : dedup_hits) {
    bool credited = false;
    for (ReportBug& bug : report.bugs) {
      if (bug.catalog_id == catalog_id) {
        bug.duplicates += hits;
        credited = true;
        break;  // dedup rows only carry the catalog id; credit the first sighting
      }
    }
    if (!credited) {
      // Rejected sightings dedup too — re-triggers of an artifact stay with it.
      for (ReportBug& bug : report.rejected_bugs) {
        if (bug.catalog_id == catalog_id) {
          bug.duplicates += hits;
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

  // Attribution section only when the campaign produced any attribution signal:
  // journals from pre-attribution builds (and plain campaigns) render unchanged.
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
  for (const ReportBug& bug : bugs) {
    out += StrFormat(
        "bug #%d [%s/%s] op=%s board=%d first_exec=%llu seed_stream=%llu "
        "cov_delta=%llu t_vs=%.1f dups=%llu validation=%s restore=%s\n",
        bug.catalog_id, bug.detector.c_str(), bug.kind.c_str(),
        bug.operation.empty() ? "?" : bug.operation.c_str(), bug.board,
        static_cast<unsigned long long>(bug.first_exec),
        static_cast<unsigned long long>(bug.seed_stream),
        static_cast<unsigned long long>(bug.coverage_delta), VirtualSeconds(bug.at),
        static_cast<unsigned long long>(bug.duplicates),
        bug.snapshot_validation.empty() ? "not_checked" : bug.snapshot_validation.c_str(),
        bug.last_restore.empty() ? "none" : bug.last_restore.c_str());
    out += "  excerpt:\n";
    out += Indent(TailLines(bug.excerpt, 4));
    out += "  program:\n";
    out += Indent(bug.program);
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
    for (const ReportBug& bug : rejected_bugs) {
      out += StrFormat(
          "sighting #%d [%s/%s] board=%d first_exec=%llu restore=%s dups=%llu\n",
          bug.catalog_id, bug.detector.c_str(), bug.kind.c_str(), bug.board,
          static_cast<unsigned long long>(bug.first_exec),
          bug.last_restore.empty() ? "none" : bug.last_restore.c_str(),
          static_cast<unsigned long long>(bug.duplicates));
      out += "  excerpt:\n";
      out += Indent(TailLines(bug.excerpt, 4));
      out += "  program:\n";
      out += Indent(bug.program);
    }
  }
  return out;
}

namespace {

void AppendJsonUint(std::string* out, const char* key, uint64_t value, bool* first) {
  if (!*first) {
    *out += ',';
  }
  *first = false;
  *out += StrFormat("\"%s\":%llu", key, static_cast<unsigned long long>(value));
}

void AppendJsonText(std::string* out, const char* key, const std::string& value,
                    bool* first) {
  if (!*first) {
    *out += ',';
  }
  *first = false;
  *out += StrFormat("\"%s\":\"%s\"", key, JsonEscape(value).c_str());
}

}  // namespace

std::string CampaignReport::RenderJson() const {
  std::string out = "{";
  bool first = true;
  AppendJsonText(&out, "os", os, &first);
  AppendJsonText(&out, "board", board, &first);
  AppendJsonUint(&out, "workers", workers, &first);
  AppendJsonUint(&out, "seed", seed, &first);
  AppendJsonUint(&out, "budget_us", budget, &first);
  AppendJsonUint(&out, "interval_us", interval, &first);
  AppendJsonUint(&out, "end_us", end, &first);
  AppendJsonUint(&out, "coverage", final_coverage, &first);
  AppendJsonUint(&out, "execs", final_execs, &first);
  AppendJsonUint(&out, "crashes", crashes, &first);
  AppendJsonUint(&out, "bugs_found", bugs_found, &first);
  AppendJsonUint(&out, "bugs_rejected", rejected_bugs.size(), &first);
  AppendJsonUint(&out, "corpus", corpus, &first);
  AppendJsonUint(&out, "journal_dropped", journal_dropped, &first);
  AppendJsonUint(&out, "crash_dumps", crash_dumps, &first);

  out += ",\n\"series\":[";
  for (size_t i = 0; i < series.size(); ++i) {
    const ReportSample& sample = series[i];
    if (i > 0) {
      out += ',';
    }
    out += StrFormat("{\"t_us\":%llu,\"coverage\":%llu,\"execs\":%llu,"
                     "\"execs_per_vsec\":%.4f}",
                     static_cast<unsigned long long>(sample.at),
                     static_cast<unsigned long long>(sample.coverage),
                     static_cast<unsigned long long>(sample.execs),
                     sample.execs_per_vsec);
  }
  out += "]";

  out += ",\n\"boards\":[";
  for (size_t i = 0; i < boards.size(); ++i) {
    const BoardAccounting& b = boards[i];
    if (i > 0) {
      out += ',';
    }
    out += '{';
    bool bf = true;
    AppendJsonUint(&out, "worker", static_cast<uint64_t>(b.worker), &bf);
    AppendJsonUint(&out, "clock_us", b.clock, &bf);
    AppendJsonUint(&out, "execs", b.execs, &bf);
    AppendJsonUint(&out, "restores", b.restores, &bf);
    AppendJsonUint(&out, "snapshot_restores", b.snapshot_restores, &bf);
    AppendJsonUint(&out, "stalls", b.stalls, &bf);
    AppendJsonUint(&out, "timeouts", b.timeouts, &bf);
    AppendJsonUint(&out, "exec_us", b.exec_us, &bf);
    AppendJsonUint(&out, "drain_us", b.drain_us, &bf);
    AppendJsonUint(&out, "reflash_us", b.reflash_us, &bf);
    AppendJsonUint(&out, "recovery_us", b.recovery_us, &bf);
    AppendJsonUint(&out, "deploy_us", b.deploy_us, &bf);
    AppendJsonUint(&out, "other_us", b.OtherUs(), &bf);
    // Overlap keys only when the board actually overlapped drains, so reports from
    // pre-attribution journals stay byte-identical.
    if (b.overlapped_drains > 0) {
      AppendJsonUint(&out, "overlapped_drains", b.overlapped_drains, &bf);
      AppendJsonUint(&out, "drain_overlap_saved_us", b.drain_overlap_saved_us, &bf);
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
    bool af = true;
    AppendJsonUint(&out, "trim_kept_calls", trim_kept_calls, &af);
    AppendJsonUint(&out, "trim_removed_calls", trim_removed_calls, &af);
    AppendJsonUint(&out, "overlapped_drains", total_overlapped, &af);
    AppendJsonUint(&out, "drain_overlap_saved_us", total_saved_us, &af);
    out += "}";
  }

  // Fleet object only for fleet journals, so legacy report JSON stays
  // byte-identical.
  if (fleet.present) {
    out += ",\n\"fleet\":{";
    bool ff = true;
    AppendJsonText(&out, "campaign", campaign, &ff);
    AppendJsonUint(&out, "leases_granted", fleet.leases_granted, &ff);
    AppendJsonUint(&out, "leases_completed", fleet.leases_completed, &ff);
    AppendJsonUint(&out, "leases_reclaimed", fleet.leases_reclaimed, &ff);
    AppendJsonUint(&out, "workers_lost", fleet.workers_lost, &ff);
    AppendJsonUint(&out, "worker_finals", fleet.worker_finals, &ff);
    AppendJsonUint(&out, "heartbeats", fleet.heartbeats, &ff);
    AppendJsonUint(&out, "corpus_syncs", fleet.corpus_syncs, &ff);
    out += "}";
  }

  out += ",\n\"resets\":{";
  first = true;
  for (const auto& [reason, count] : resets_by_reason) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(reason).c_str(),
                     static_cast<unsigned long long>(count));
  }
  out += "}";

  out += ",\n\"restores_by_mode\":{";
  first = true;
  for (const auto& [mode, count] : restores_by_mode) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(mode).c_str(),
                     static_cast<unsigned long long>(count));
  }
  out += "}";

  auto append_bug = [](std::string* dst, const ReportBug& bug) {
    *dst += '{';
    bool bf = true;
    AppendJsonUint(dst, "catalog_id", static_cast<uint64_t>(bug.catalog_id), &bf);
    AppendJsonText(dst, "detector", bug.detector, &bf);
    AppendJsonText(dst, "kind", bug.kind, &bf);
    AppendJsonText(dst, "operation", bug.operation, &bf);
    AppendJsonText(dst, "excerpt", bug.excerpt, &bf);
    AppendJsonText(dst, "program", bug.program, &bf);
    AppendJsonUint(dst, "t_us", bug.at, &bf);
    AppendJsonUint(dst, "first_exec", bug.first_exec, &bf);
    AppendJsonUint(dst, "board", static_cast<uint64_t>(bug.board), &bf);
    AppendJsonUint(dst, "seed_stream", bug.seed_stream, &bf);
    AppendJsonUint(dst, "coverage_delta", bug.coverage_delta, &bf);
    AppendJsonUint(dst, "duplicates", bug.duplicates, &bf);
    AppendJsonText(dst, "snapshot_validation",
                   bug.snapshot_validation.empty() ? "not_checked"
                                                   : bug.snapshot_validation,
                   &bf);
    AppendJsonText(dst, "last_restore",
                   bug.last_restore.empty() ? "none" : bug.last_restore, &bf);
    AppendJsonText(dst, "dump_reason", bug.dump_reason, &bf);
    AppendJsonText(dst, "uart_tail", bug.uart_tail, &bf);
    AppendJsonText(dst, "port_ops", bug.port_ops, &bf);
    AppendJsonText(dst, "events", bug.events, &bf);
    *dst += '}';
  };

  out += ",\n\"bugs\":[";
  for (size_t i = 0; i < bugs.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    append_bug(&out, bugs[i]);
  }
  out += "]";

  out += ",\n\"rejected_bugs\":[";
  for (size_t i = 0; i < rejected_bugs.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    append_bug(&out, rejected_bugs[i]);
  }
  out += "]";

  out += ",\n\"warnings\":[";
  for (size_t i = 0; i < warnings.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += StrFormat("\"%s\"", JsonEscape(warnings[i]).c_str());
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
      if (row.type != "campaign_start") {
        continue;
      }
      const std::string& id = row.Text("campaign");
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
    bool continuation =
        !rows.empty() && rows.front().type == "journal_segment" && !streams.empty();
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
