// Observability-plane tests: Prometheus text exposition goldens (stable names,
// labels, cumulative histogram buckets ending at +Inf), Chrome trace-event
// export (valid JSON, span nesting preserved), and journal rotation — a
// rotated multi-segment journal must reproduce the single-file CampaignReport
// bit-for-bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/prometheus.h"
#include "src/telemetry/report.h"
#include "src/telemetry/rows.h"
#include "src/telemetry/trace_export.h"

namespace eof {
namespace telemetry {
namespace {

// A row as the loader sees it: rendered by its list, then parsed back.
JournalRow Parsed(const Event& event) {
  Result<JournalRow> row = ParseJournalLine(event.ToJsonLine());
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  return row.ok() ? std::move(row).value() : JournalRow();
}

TEST(PrometheusTest, NameSanitizationAndEscaping) {
  EXPECT_EQ(PrometheusName("span.exec_continue_us"), "eof_span_exec_continue_us");
  EXPECT_EQ(PrometheusName("exec.execs"), "eof_exec_execs");
  EXPECT_EQ(PrometheusName("eof_already_prefixed"), "eof_already_prefixed");
  EXPECT_EQ(PrometheusName("weird-name with spaces"), "eof_weird_name_with_spaces");
  EXPECT_EQ(PrometheusEscape("plain"), "plain");
  EXPECT_EQ(PrometheusEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(PrometheusLabelSet({}), "");
  EXPECT_EQ(PrometheusLabelSet({{"campaign", "c\"1"}, {"worker", "w0"}}),
            "{campaign=\"c\\\"1\",worker=\"w0\"}");
}

TEST(PrometheusTest, GoldenExposition) {
  MetricsRegistry registry;
  Counter* execs = registry.RegisterCounter("exec.execs");
  Gauge* corpus = registry.RegisterGauge("corpus.size");
  Histogram* latency = registry.RegisterHistogram("span.deploy_us", {10, 100, 1000});
  execs->Add(42);
  corpus->Set(7);
  latency->Observe(5);     // bucket le=10
  latency->Observe(50);    // bucket le=100
  latency->Observe(51);    // bucket le=100
  latency->Observe(9999);  // overflow -> le=+Inf only

  std::string got = RenderPrometheus(registry.Snapshot(), {{"campaign", "c1"}});
  // The full exposition, byte for byte: counters (with _total) before gauges
  // before histograms; histogram buckets are cumulative and end at +Inf fed by
  // the snapshot's overflow bucket.
  const char* want =
      "# TYPE eof_exec_execs_total counter\n"
      "eof_exec_execs_total{campaign=\"c1\"} 42\n"
      "# TYPE eof_corpus_size gauge\n"
      "eof_corpus_size{campaign=\"c1\"} 7\n"
      "# TYPE eof_span_deploy_us histogram\n"
      "eof_span_deploy_us_bucket{campaign=\"c1\",le=\"10\"} 1\n"
      "eof_span_deploy_us_bucket{campaign=\"c1\",le=\"100\"} 3\n"
      "eof_span_deploy_us_bucket{campaign=\"c1\",le=\"1000\"} 3\n"
      "eof_span_deploy_us_bucket{campaign=\"c1\",le=\"+Inf\"} 4\n"
      "eof_span_deploy_us_sum{campaign=\"c1\"} 10105\n"
      "eof_span_deploy_us_count{campaign=\"c1\"} 4\n";
  EXPECT_EQ(got, want);
}

TEST(PrometheusTest, UnlabeledRenderAndEmptySnapshot) {
  MetricsSnapshot empty;
  EXPECT_EQ(RenderPrometheus(empty), "");

  MetricsRegistry registry;
  registry.RegisterCounter("a")->Increment();
  EXPECT_EQ(RenderPrometheus(registry.Snapshot()),
            "# TYPE eof_a_total counter\neof_a_total 1\n");
}

// Rows built by hand: the journal shapes the tracer and campaign writers emit.
JournalRow SpanRow(VirtualTime at, int worker, const std::string& name,
                   uint64_t begin_us, uint64_t dur_us) {
  JournalRow row;
  row.type = "span";
  row.at = at;
  row.worker = worker;
  row.texts["span"] = name;
  row.uints["span_id"] = 99;
  row.uints["begin_us"] = begin_us;
  row.uints["dur_us"] = dur_us;
  return row;
}

TEST(TraceExportTest, SpansNestAndInstantsRender) {
  std::vector<JournalRow> rows;
  // Child journaled before parent (journals close spans in End() order), at a
  // shared begin timestamp: the export must still put the enclosing span first.
  rows.push_back(SpanRow(1500, 0, "reflash", 1000, 300));
  rows.push_back(SpanRow(2000, 0, "watchdog_recovery", 1000, 1000));
  rows.push_back(SpanRow(5000, 1, "deploy", 4000, 1000));
  BugReport bug;
  bug.catalog_id = 7;
  bug.board = 1;
  bug.kind = "double free";
  bug.detector = "exception";
  rows.push_back(Parsed(RowEvent(4200, -1, bug)));
  // Campaign scope -> global instant.
  rows.push_back(Parsed(RowEvent(4300, -1, LivenessResetRow{"stall", 1, "cold"})));
  JournalRow ignored;
  ignored.type = "heartbeat";  // not a trace row; must be skipped
  ignored.at = 1;
  rows.push_back(ignored);

  std::string json = RenderChromeTrace(rows);
  // Structure: one JSON object with a traceEvents array, newline-terminated.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // Lane metadata for boards 0 and 1.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"board 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"board 1\"}"), std::string::npos);
  // Nesting: at ts=1000, watchdog_recovery (dur 1000) precedes reflash (300).
  size_t parent = json.find("\"name\":\"watchdog_recovery\"");
  size_t child = json.find("\"name\":\"reflash\"");
  ASSERT_NE(parent, std::string::npos);
  ASSERT_NE(child, std::string::npos);
  EXPECT_LT(parent, child);
  // Complete events carry ts and dur in (virtual) microseconds.
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1000,\"dur\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":4000,\"dur\":1000"), std::string::npos);
  // Instants: the bug lands on its board's lane, the campaign-scope reset is a
  // global instant.
  EXPECT_NE(json.find("\"name\":\"bug 7 double free\",\"ph\":\"i\",\"ts\":4200,"
                      "\"s\":\"t\",\"pid\":0,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"liveness_reset stall\",\"ph\":\"i\",\"ts\":4300,"
                      "\"s\":\"g\""),
            std::string::npos);
  // The heartbeat row left no event behind.
  EXPECT_EQ(json.find("heartbeat"), std::string::npos);
}

TEST(TraceExportTest, EmptyRowsRenderEmptyTrace) {
  EXPECT_EQ(RenderChromeTrace({}), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

// The event sequence a small fleet campaign journals, synthesized so the test
// controls the byte sizes that drive rotation.
std::vector<Event> CampaignEvents() {
  std::vector<Event> events;
  events.push_back(RowEvent(
      0, -1, CampaignStartRow{"zephyr", "default", 2, 7, 60000000, 1000000, "c1", 1}));
  for (int i = 0; i < 40; ++i) {
    uint64_t n = static_cast<uint64_t>(i);
    events.push_back(RowEvent(1000 + 10 * n, 1 + i % 2, LeaseGrantRow{"c1", 100 + n, n % 4, 1}));
    FleetFarmSnapshotRow farm;
    farm.boards = 4;
    farm.campaign.campaign_coverage = 10 + n;
    farm.campaign.corpus = 20 + n;
    farm.campaign.campaign_execs = 100 * n;
    farm.campaign_id = "c1";
    events.push_back(RowEvent(2000 + 100 * n, -1, farm));
  }
  events.push_back(RowEvent(60000000, -1, CampaignEndRow{0}));
  return events;
}

TEST(JournalRotationTest, SegmentsStayUnderCapAndCarryMarkers) {
  std::string base = ::testing::TempDir() + "eof_rotate_markers.jsonl";
  auto sink = RotatingFileEventSink::Open(base, /*rotate_bytes=*/2048);
  ASSERT_TRUE(sink.ok());
  for (const Event& event : CampaignEvents()) {
    EXPECT_TRUE(sink.value()->Emit(event));
  }
  sink.value()->Flush();
  std::vector<std::string> segments = sink.value()->SegmentPaths();
  ASSERT_GT(segments.size(), 2u);
  EXPECT_EQ(segments.front(),
            ::testing::TempDir() + "eof_rotate_markers.000.jsonl");
  EXPECT_EQ(sink.value()->dropped(), 0u);

  for (size_t i = 0; i < segments.size(); ++i) {
    FILE* file = fopen(segments[i].c_str(), "rb");
    ASSERT_NE(file, nullptr) << segments[i];
    fseek(file, 0, SEEK_END);
    long size = ftell(file);
    // Every segment respects the cap (no single line here exceeds it).
    EXPECT_LE(size, 2048) << segments[i];
    fseek(file, 0, SEEK_SET);
    char line[4096];
    ASSERT_NE(fgets(line, sizeof(line), file), nullptr);
    if (i > 0) {
      // Continuation segments open with the journal_segment header row the
      // report loader keys on.
      EXPECT_NE(std::string(line).find("\"type\":\"journal_segment\""),
                std::string::npos)
          << segments[i];
    }
    fclose(file);
  }
  // Every closed segment ends with its journal_rotate manifest row.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    FILE* file = fopen(segments[i].c_str(), "rb");
    std::string last, current;
    char line[4096];
    while (fgets(line, sizeof(line), file) != nullptr) {
      current = line;
      if (!current.empty() && current.back() == '\n') {
        last = current;
      }
    }
    fclose(file);
    EXPECT_NE(last.find("\"type\":\"journal_rotate\""), std::string::npos)
        << segments[i];
  }
}

TEST(JournalRotationTest, RotatedSegmentsReproduceSingleFileReportExactly) {
  std::vector<Event> events = CampaignEvents();

  std::string single_path = ::testing::TempDir() + "eof_rotate_single.jsonl";
  {
    auto single = FileEventSink::Open(single_path, /*buffer_lines=*/1);
    ASSERT_TRUE(single.ok());
    for (const Event& event : events) {
      ASSERT_TRUE(single.value()->Emit(event));
    }
    single.value()->Flush();
  }

  std::string rotated_base = ::testing::TempDir() + "eof_rotate_multi.jsonl";
  std::vector<std::string> segments;
  {
    auto rotated = RotatingFileEventSink::Open(rotated_base, /*rotate_bytes=*/1024);
    ASSERT_TRUE(rotated.ok());
    for (const Event& event : events) {
      ASSERT_TRUE(rotated.value()->Emit(event));
    }
    rotated.value()->Flush();
    segments = rotated.value()->SegmentPaths();
  }
  ASSERT_GT(segments.size(), 3u);

  auto single_rows = LoadMergedJournalRows({single_path});
  ASSERT_TRUE(single_rows.ok());
  auto rotated_rows = LoadMergedJournalRows(segments);
  ASSERT_TRUE(rotated_rows.ok());

  // The rotated stream is the single stream plus interleaved rotation markers;
  // stripped of markers it must match row-for-row in order.
  std::vector<const JournalRow*> rotated_payload;
  size_t markers = 0;
  for (const JournalRow& row : rotated_rows.value()) {
    if (row.type == "journal_rotate" || row.type == "journal_segment") {
      ++markers;
      continue;
    }
    rotated_payload.push_back(&row);
  }
  EXPECT_EQ(markers, 2 * (segments.size() - 1));
  ASSERT_EQ(rotated_payload.size(), single_rows.value().size());
  for (size_t i = 0; i < rotated_payload.size(); ++i) {
    EXPECT_EQ(rotated_payload[i]->type, single_rows.value()[i].type) << i;
    EXPECT_EQ(rotated_payload[i]->at, single_rows.value()[i].at) << i;
  }

  // The folded report — text and JSON renderings — is bit-for-bit identical.
  CampaignReport single_report = BuildReport(single_rows.value());
  CampaignReport rotated_report = BuildReport(rotated_rows.value());
  EXPECT_EQ(single_report.RenderText(), rotated_report.RenderText());
  EXPECT_EQ(single_report.RenderJson(), rotated_report.RenderJson());

  // And the trace export sees identical spans (markers are not trace rows).
  EXPECT_EQ(RenderChromeTrace(single_rows.value()),
            RenderChromeTrace(rotated_rows.value()));
}

TEST(JournalRotationTest, RejectsZeroRotateBytes) {
  EXPECT_FALSE(RotatingFileEventSink::Open("/tmp/x.jsonl", 0).ok());
}

}  // namespace
}  // namespace telemetry
}  // namespace eof
