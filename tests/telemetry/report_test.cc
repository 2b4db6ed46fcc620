// Report-builder tests: strict JSONL parsing (malformed lines fail with their line
// number), BuildReport's folding and warning rules, golden-file rendering of a
// fixture journal (text and JSON, including the bug-provenance table), and the
// round-trip contract from the ISSUE acceptance list — a `--jobs 4` campaign's
// journal, fed through `eof report`'s loader, reproduces the live CampaignResult's
// final coverage, exec count, and deduped bug list exactly, and every bug carries a
// flight-recorder dump with a non-empty UART tail, port-op ring, and reproducer.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/core/board_farm.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"
#include "src/telemetry/report.h"

namespace eof {
namespace telemetry {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  FILE* file = fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << "cannot open " << path;
  if (file == nullptr) {
    return "";
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  fclose(file);
  return text;
}

std::string TestdataPath(const std::string& name) {
  return std::string(EOF_TESTDATA_DIR) + "/" + name;
}

TEST(ParseJournalLineTest, ParsesEnvelopeAndTypedFields) {
  auto row = ParseJournalLine(
      R"({"type":"bug_report","t_us":1234,"worker":2,"catalog_id":7,)"
      R"("execs_per_vsec":8.25,"excerpt":"line one\nline \"two\""})");
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->type, "bug_report");
  EXPECT_EQ(row->at, 1234u);
  EXPECT_EQ(row->worker, 2);
  EXPECT_EQ(row->Uint("catalog_id"), 7u);
  EXPECT_DOUBLE_EQ(row->Real("execs_per_vsec"), 8.25);
  EXPECT_EQ(row->Text("excerpt"), "line one\nline \"two\"");
  EXPECT_FALSE(row->Has("no_such_key"));
  EXPECT_EQ(row->Uint("no_such_key", 42), 42u);
  // Envelope keys are lifted out of the maps.
  EXPECT_FALSE(row->Has("type"));
  EXPECT_FALSE(row->Has("t_us"));
}

TEST(ParseJournalLineTest, UintAndRealCoerceAcrossNumberKinds) {
  auto row = ParseJournalLine(R"({"type":"x","count":9,"rate":2.5})");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->Uint("rate"), 2u);          // real truncates to uint
  EXPECT_DOUBLE_EQ(row->Real("count"), 9.0); // uint widens to real
}

TEST(ParseJournalLineTest, RejectsMalformedRows) {
  EXPECT_FALSE(ParseJournalLine("not json").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"t_us":5})").ok());            // no "type"
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","a":[1]})").ok());  // nested value
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x"} trailing)").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","s":"unterminated)").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","s":"bad \q escape"})").ok());
}

TEST(ParseJournalTest, SkipsBlankLinesAndReportsTheFailingLineNumber) {
  auto rows = ParseJournal("{\"type\":\"a\"}\n\n  \n{\"type\":\"b\"}\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].type, "a");
  EXPECT_EQ((*rows)[1].type, "b");

  auto bad = ParseJournal("{\"type\":\"a\"}\n\nnot json\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().ToString();
}

TEST(BuildReportTest, MissingBookendsAndDropsBecomeWarnings) {
  // The second row is a farm_snapshot in the format journals had while directed
  // scheduling existed: its retired directed_hits/frontier columns are ignored.
  auto rows = ParseJournal(
      R"({"type":"farm_snapshot","t_us":100,"campaign_coverage":5,)"
      R"("campaign_execs":10,"journal_dropped":3})"
      "\n"
      R"({"type":"farm_snapshot","t_us":200,"boards":1,"execs":12,"execs_per_vsec":0.06,)"
      R"("coverage":7,"campaign_coverage":7,"corpus":3,"campaign_execs":12,"crashes":0,)"
      R"("bugs":0,"bugs_rejected":0,"directed_hits":6,"frontier":443,)"
      R"("trim_removed_calls":4,"trim_kept_calls":9,"journal_dropped":3})");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  CampaignReport report = BuildReport(rows.value());
  EXPECT_EQ(report.final_coverage, 7u);
  EXPECT_EQ(report.final_execs, 12u);
  EXPECT_EQ(report.trim_removed_calls, 4u);
  EXPECT_EQ(report.trim_kept_calls, 9u);
  EXPECT_EQ(report.journal_dropped, 3u);
  ASSERT_EQ(report.warnings.size(), 3u);  // no start, no end, dropped rows
  std::string text = report.RenderText();
  std::string json = report.RenderJson();
  EXPECT_NE(text.find("WARNING"), std::string::npos);
  EXPECT_NE(text.find("trim: kept=9 removed=4"), std::string::npos);
  EXPECT_NE(json.find("\"trim_kept_calls\":9"), std::string::npos);
  for (const std::string& rendered : {text, json}) {
    EXPECT_EQ(rendered.find("directed_hits"), std::string::npos);
    EXPECT_EQ(rendered.find("frontier"), std::string::npos);
  }
}

TEST(BuildReportTest, DedupRowsCreditTheFirstSightingOfTheCatalogId) {
  auto rows = ParseJournal(
      "{\"type\":\"campaign_start\",\"t_us\":0,\"os\":\"x\",\"board\":\"y\"}\n"
      "{\"type\":\"bug_report\",\"t_us\":10,\"catalog_id\":3,\"program\":\"p\"}\n"
      "{\"type\":\"bug_dedup\",\"t_us\":20,\"catalog_id\":3}\n"
      "{\"type\":\"bug_dedup\",\"t_us\":30,\"catalog_id\":3}\n"
      "{\"type\":\"campaign_end\",\"t_us\":40,\"journal_dropped\":0}\n");
  ASSERT_TRUE(rows.ok());
  CampaignReport report = BuildReport(rows.value());
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].duplicates, 2u);
  // bugs_found (1) disagrees with the absent snapshot count (0) -> warning.
  ASSERT_EQ(report.warnings.size(), 1u);
}

// Golden rendering of the checked-in fixture journal. Regenerate the goldens with
// `./build/tools/eof report tests/telemetry/testdata/sample_journal.jsonl` redirected
// into sample_report.txt (and with --json into sample_report.json).
TEST(ReportGoldenTest, TextRenderingMatchesGolden) {
  auto report = LoadReportFromFile(TestdataPath("sample_journal.jsonl"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string golden = ReadFileOrDie(TestdataPath("sample_report.txt"));
  EXPECT_EQ(report->RenderText(), golden);
  // The text form carries the bug-provenance table.
  EXPECT_NE(golden.find("first_exec="), std::string::npos);
  EXPECT_NE(golden.find("seed_stream="), std::string::npos);
}

TEST(ReportGoldenTest, JsonRenderingMatchesGolden) {
  auto report = LoadReportFromFile(TestdataPath("sample_journal.jsonl"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string golden = ReadFileOrDie(TestdataPath("sample_report.json"));
  EXPECT_EQ(report->RenderJson(), golden);
  EXPECT_NE(golden.find("\"seed_stream\":"), std::string::npos);
  EXPECT_NE(golden.find("\"uart_tail\":"), std::string::npos);
}

TEST(ReportLoadTest, MissingFileAndMalformedJournalFailWithContext) {
  auto missing = LoadReportFromFile(TestdataPath("no_such_journal.jsonl"));
  EXPECT_FALSE(missing.ok());

  std::string path = ::testing::TempDir() + "eof_malformed_journal.jsonl";
  FILE* file = fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  fputs("{\"type\":\"campaign_start\"}\n{broken\n", file);
  fclose(file);
  auto bad = LoadReportFromFile(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
  remove(path.c_str());
}

// The ISSUE acceptance check: a --jobs 4 campaign journal, loaded back through the
// report pipeline, reproduces the live campaign's final coverage and bug list
// exactly, and every deduped bug carries full forensics.
TEST(ReportRoundTripTest, FarmJournalReproducesTheLiveCampaignResult) {
  ASSERT_TRUE(RegisterAllOses().ok());
  std::string journal = ::testing::TempDir() + "eof_report_roundtrip_farm.jsonl";

  FuzzerConfig config;
  config.os_name = "zephyr";  // k_heap_init(size<8) crashes are shallow: bugs expected
  config.seed = 5;
  config.budget = 20 * kVirtualMinute;
  config.sample_points = 10;
  config.metrics_out = journal;
  BoardFarm farm(config, /*jobs=*/4);
  auto result = farm.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->crashes, 0u) << "config no longer crashes; pick another seed";
  ASSERT_FALSE(result->bugs.empty());
  EXPECT_EQ(result->journal_dropped, 0u);

  auto report = LoadReportFromFile(journal);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->warnings.empty())
      << "unexpected warning: " << report->warnings.front();

  // Campaign header and final truths match the live result.
  EXPECT_EQ(report->os, "zephyr");
  EXPECT_EQ(report->workers, 4u);
  EXPECT_EQ(report->seed, 5u);
  EXPECT_EQ(report->budget, config.budget);
  EXPECT_EQ(report->end, result->elapsed);
  EXPECT_EQ(report->final_coverage, result->final_coverage);
  EXPECT_EQ(report->final_execs, result->execs);
  EXPECT_EQ(report->crashes, result->crashes);
  EXPECT_EQ(report->corpus, result->corpus_size);
  EXPECT_EQ(report->journal_dropped, result->journal_dropped);

  // The deduped bug list matches one-to-one, in order, with full provenance.
  ASSERT_EQ(report->bugs.size(), result->bugs.size());
  for (size_t i = 0; i < report->bugs.size(); ++i) {
    const ReportBug& from_journal = report->bugs[i];
    const BugReport& live = result->bugs[i];
    EXPECT_EQ(from_journal.catalog_id, live.catalog_id);
    EXPECT_EQ(from_journal.detector, live.detector);
    EXPECT_EQ(from_journal.kind, live.kind);
    EXPECT_EQ(from_journal.excerpt, live.excerpt);
    EXPECT_EQ(from_journal.program, live.program_text);
    EXPECT_EQ(from_journal.at, live.at);
    EXPECT_EQ(from_journal.first_exec, live.first_exec);
    EXPECT_EQ(from_journal.board, live.board);
    EXPECT_EQ(from_journal.seed_stream, live.seed_stream);
    EXPECT_EQ(from_journal.coverage_delta, live.coverage_delta);
    // Every bug carries a crash dump with real forensics content.
    EXPECT_FALSE(from_journal.program.empty());
    EXPECT_FALSE(from_journal.dump_reason.empty());
    EXPECT_FALSE(from_journal.uart_tail.empty());
    EXPECT_FALSE(from_journal.port_ops.empty());
    EXPECT_FALSE(from_journal.events.empty());
  }
  EXPECT_GE(report->crash_dumps, report->bugs.size());

  // Time accounting covers all four boards and the series reaches the end.
  EXPECT_EQ(report->boards.size(), 4u);
  for (const BoardAccounting& board : report->boards) {
    EXPECT_GT(board.clock, 0u);
    EXPECT_GT(board.execs, 0u);
    EXPECT_GT(board.exec_us, 0u);
  }
  ASSERT_FALSE(report->series.empty());
  EXPECT_EQ(report->series.back().at, result->elapsed);
  EXPECT_EQ(report->series.back().coverage, result->final_coverage);

  remove(journal.c_str());
}

// Same contract on the single-threaded engine (the fuzzer.cc journal path).
TEST(ReportRoundTripTest, SingleEngineJournalReproducesTheLiveResult) {
  ASSERT_TRUE(RegisterAllOses().ok());
  std::string journal = ::testing::TempDir() + "eof_report_roundtrip_single.jsonl";

  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = 11;
  config.budget = 5 * kVirtualMinute;
  config.sample_points = 10;
  config.metrics_out = journal;
  EofFuzzer fuzzer(config);
  auto result = fuzzer.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto report = LoadReportFromFile(journal);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->warnings.empty());
  EXPECT_EQ(report->workers, 1u);
  EXPECT_EQ(report->final_coverage, result->final_coverage);
  EXPECT_EQ(report->final_execs, result->execs);
  EXPECT_EQ(report->bugs.size(), result->bugs.size());
  ASSERT_EQ(report->boards.size(), 1u);
  EXPECT_EQ(report->boards[0].clock, result->elapsed);

  remove(journal.c_str());
}

}  // namespace
}  // namespace telemetry
}  // namespace eof
