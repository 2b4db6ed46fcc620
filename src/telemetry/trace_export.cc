#include "src/telemetry/trace_export.h"

#include <algorithm>
#include <set>
#include <variant>

#include "src/common/strings.h"
#include "src/telemetry/journal.h"

namespace eof {
namespace telemetry {

namespace {

struct TraceEvent {
  uint64_t ts = 0;
  uint64_t dur = 0;  // complete events only
  int tid = 0;
  char phase = 'X';  // 'X' complete, 'i' instant
  bool global_scope = false;
  std::string name;
  std::string args;  // rendered {"k":v,...}, may be empty
};

void AppendEvent(std::string* out, const TraceEvent& event) {
  *out += StrFormat("{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%llu",
                    JsonEscape(event.name).c_str(), event.phase,
                    static_cast<unsigned long long>(event.ts));
  if (event.phase == 'X') {
    *out += StrFormat(",\"dur\":%llu", static_cast<unsigned long long>(event.dur));
  }
  if (event.phase == 'i') {
    *out += StrFormat(",\"s\":\"%s\"", event.global_scope ? "g" : "t");
  }
  *out += StrFormat(",\"pid\":0,\"tid\":%d", event.tid);
  if (!event.args.empty()) {
    *out += StrFormat(",\"args\":%s", event.args.c_str());
  }
  *out += "}";
}

}  // namespace

std::string RenderChromeTrace(const std::vector<JournalRow>& rows) {
  std::vector<TraceEvent> events;
  std::set<int> lanes;
  for (const JournalRow& row : rows) {
    Result<AnyRow> typed = DecodeRow(row);
    if (!typed.ok()) {
      continue;
    }
    TraceEvent event;
    if (const auto* span = std::get_if<SpanRow>(&typed.value())) {
      event.name = span->span;
      event.phase = 'X';
      event.ts = span->begin_us;
      event.dur = span->dur_us;
      event.tid = row.worker >= 0 ? row.worker : 0;
      event.args = StrFormat("{\"span_id\":%llu}",
                             static_cast<unsigned long long>(span->span_id));
      lanes.insert(event.tid);
    } else if (const auto* bug = std::get_if<BugReport>(&typed.value())) {
      event.name = StrFormat("bug %d %s", bug->catalog_id, bug->kind.c_str());
      event.phase = 'i';
      event.ts = row.at;
      event.tid = bug->board;
      event.args = StrFormat("{\"detector\":\"%s\"}", JsonEscape(bug->detector).c_str());
      lanes.insert(event.tid);
    } else if (const auto* reset = std::get_if<LivenessResetRow>(&typed.value())) {
      event.name = StrFormat("liveness_reset %s", reset->reason.c_str());
      event.phase = 'i';
      event.ts = row.at;
      if (row.worker >= 0) {
        event.tid = row.worker;
        lanes.insert(event.tid);
      } else {
        event.global_scope = true;
      }
    } else {
      continue;
    }
    events.push_back(std::move(event));
  }
  // ts ascending; at a shared ts the longer span first, so an enclosing span
  // (e.g. watchdog recovery around its nested reflash) precedes its children —
  // the order trace viewers need to reconstruct the nesting.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) {
                       return a.ts < b.ts;
                     }
                     return a.dur > b.dur;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (int lane : lanes) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
        "\"args\":{\"name\":\"board %d\"}}",
        lane, lane);
  }
  for (const TraceEvent& event : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendEvent(&out, event);
  }
  out += "]}\n";
  return out;
}

}  // namespace telemetry
}  // namespace eof
