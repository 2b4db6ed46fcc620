// Report-builder tests: strict JSONL parsing (malformed lines and rows that break
// their type's field list fail with their line number), one golden line per row
// shape that must decode and re-encode byte for byte and survive havoc mutation,
// BuildReport's folding and warning rules, golden-file rendering of a
// fixture journal (text and JSON, including the bug-provenance table), and the
// round-trip contract from the ISSUE acceptance list — a `--jobs 4` campaign's
// journal, fed through `eof report`'s loader, reproduces the live CampaignResult's
// final coverage, exec count, and deduped bug list exactly, and every bug carries a
// flight-recorder dump with a non-empty UART tail, port-op ring, and reproducer.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/strings.h"
#include "src/core/board_farm.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"
#include "src/telemetry/report.h"
#include "src/telemetry/rows.h"
#include "tests/fleet/decoder_harness.h"

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
  EXPECT_EQ(row->uints.at("catalog_id"), 7u);
  EXPECT_DOUBLE_EQ(row->reals.at("execs_per_vsec"), 8.25);
  EXPECT_EQ(row->texts.at("excerpt"), "line one\nline \"two\"");
  // Envelope keys are lifted out of the maps.
  EXPECT_EQ(row->texts.count("type"), 0u);
  EXPECT_EQ(row->uints.count("t_us"), 0u);
  EXPECT_EQ(row->uints.count("worker"), 0u);
}

TEST(ParseJournalLineTest, RejectsMalformedRows) {
  EXPECT_FALSE(ParseJournalLine("not json").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"t_us":5})").ok());            // no "type"
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","a":[1]})").ok());  // nested value
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x"} trailing)").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","s":"unterminated)").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","s":"bad \q escape"})").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x"})").ok());  // no "t_us"
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","t_us":0,"a":1,"a":2})").ok());
  // A number past u64 does not saturate, and a worker past int does not wrap.
  auto overflow = ParseJournalLine(R"({"type":"x","t_us":0,"seed":99999999999999999999999})");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("overflows"), std::string::npos);
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","t_us":0,"worker":4294967297})").ok());
  EXPECT_FALSE(ParseJournalLine(R"({"type":"x","t_us":0,"worker":1.5})").ok());
  EXPECT_TRUE(ParseJournalLine(R"({"type":"x","t_us":0,"worker":2147483647})").ok());
}

constexpr char kEndRow[] = R"({"type":"campaign_end","t_us":9,"journal_dropped":0})";

TEST(ParseJournalTest, SkipsBlankLinesAndReportsTheFailingLineNumber) {
  auto rows = ParseJournal(std::string(kEndRow) +
                           "\n\n  \n{\"type\":\"trim\",\"t_us\":5,\"kept\":1,\"removed\":2}\n");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].type, "campaign_end");
  EXPECT_EQ((*rows)[1].type, "trim");

  auto bad = ParseJournal(std::string(kEndRow) + "\n\nnot json\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().ToString();
}

// A row as the loader sees it: rendered by its list, then parsed back.
JournalRow Parsed(const Event& event) {
  Result<JournalRow> row = ParseJournalLine(event.ToJsonLine());
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  return row.ok() ? std::move(row).value() : JournalRow();
}

TEST(BuildReportTest, MissingBookendsAndDropsBecomeWarnings) {
  FarmSnapshotRow early;
  early.campaign.campaign_coverage = 5;
  early.campaign.campaign_execs = 10;
  early.journal_dropped = 3;
  FarmSnapshotRow late;
  late.boards = 1;
  late.board.execs = 12;
  late.board.execs_per_vsec = 0.06;
  late.campaign = {7, 3, 12, 0, 0, 0, 4, 9};
  late.journal_dropped = 3;
  CampaignReport report =
      BuildReport({Parsed(RowEvent(100, -1, early)), Parsed(RowEvent(200, -1, late))});
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
}

TEST(BuildReportTest, DedupRowsCreditTheFirstSightingOfTheCatalogId) {
  BugReport bug;
  bug.catalog_id = 3;
  bug.program_text = "p";
  CampaignReport report = BuildReport({
      Parsed(RowEvent(0, -1, CampaignStartRow{"x", "y", 1, 1, 40, 10, "", 0})),
      Parsed(RowEvent(10, -1, bug)),
      Parsed(RowEvent(20, -1, BugDedupRow{3, "log"})),
      Parsed(RowEvent(30, -1, BugDedupRow{3, "log"})),
      Parsed(RowEvent(40, -1, CampaignEndRow{0})),
  });
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].duplicates, 2u);
  // bugs_found (1) disagrees with the absent snapshot count (0) -> warning.
  ASSERT_EQ(report.warnings.size(), 1u);
}

// Two workers of one fleet campaign each journal their own first sighting of
// catalog bug 4, with different crash text. The merged report folds them into
// one bug by the same identity rule the scheduler and the orchestrator use;
// uncataloged sightings with different excerpts stay apart.
TEST(BuildReportTest, FleetFoldKeysCatalogedSightingsOnTheIdAlone) {
  BugReport first;
  first.catalog_id = 4;
  first.excerpt = "k_heap_init: first chunk header written at -7";
  first.board = 0;
  BugReport second = first;
  second.excerpt = "k_heap_init: first chunk header written at -1";
  second.board = 2;
  BugReport unknown_a;
  unknown_a.excerpt = "PANIC: unknown a";
  BugReport unknown_b;
  unknown_b.excerpt = "PANIC: unknown b";
  CampaignReport report = BuildReport({
      Parsed(RowEvent(0, -1, CampaignStartRow{"zephyr", "b", 4, 7, 40, 10, "c", 1})),
      Parsed(RowEvent(10, 0, first)),
      Parsed(RowEvent(15, 0, BugDedupRow{4, "exception"})),
      Parsed(RowEvent(20, 2, second)),
      Parsed(RowEvent(25, 0, unknown_a)),
      Parsed(RowEvent(30, 2, unknown_b)),
  });
  ASSERT_EQ(report.bugs.size(), 3u);
  EXPECT_EQ(report.bugs[0].bug.catalog_id, 4);
  EXPECT_EQ(report.bugs[0].bug.excerpt, first.excerpt);  // the first row wins
  EXPECT_EQ(report.bugs[0].bug.board, 0);
  EXPECT_EQ(report.bugs[0].duplicates, 2u);  // the other worker's row + one bug_dedup
  EXPECT_EQ(report.bugs[1].bug.excerpt, unknown_a.excerpt);
  EXPECT_EQ(report.bugs[2].bug.excerpt, unknown_b.excerpt);
  EXPECT_EQ(report.bugs_found, 3u);
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
  fprintf(file, "%s\n{broken\n", kEndRow);
  fclose(file);
  auto bad = LoadReportFromFile(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
  remove(path.c_str());
}

// The loader checks every row against its type's list and names the file and
// line of the first row that breaks it.
TEST(ReportLoadTest, RowsThatBreakTheirListFailWithFileAndLine) {
  const std::pair<const char*, const char*> kBadRows[] = {
      {R"({"type":"campaign_end","t_us":9})", "missing key 'journal_dropped'"},
      {R"({"type":"campaign_end","t_us":9,"journal_dropped":0,"extra":1})",
       "unknown key 'extra'"},
      {R"({"type":"campaign_end","t_us":9,"journal_dropped":"0"})",
       "'journal_dropped' is not an unsigned integer"},
      {R"({"type":"trim","t_us":9,"kept":1.5,"removed":2})",
       "'kept' is not an unsigned integer"},
      {R"({"type":"no_such_row","t_us":9})", "unknown row type 'no_such_row'"},
      {R"({"type":"campaign_end","t_us":9,"journal_dropped":18446744073709551616})",
       "overflows"},
      {R"({"type":"bug_dedup","t_us":9,"catalog_id":2147483648,"detector":"log"})",
       "'catalog_id' overflows an int"},
  };
  std::string path = ::testing::TempDir() + "eof_strict_journal.jsonl";
  for (const auto& [row, reason] : kBadRows) {
    FILE* file = fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    fprintf(file, "%s\n%s\n", kEndRow, row);
    fclose(file);
    auto bad = LoadReportFromFile(path);
    ASSERT_FALSE(bad.ok()) << row;
    std::string message = bad.status().message();
    EXPECT_NE(message.find(path + ": line 2: "), std::string::npos) << message;
    EXPECT_NE(message.find(reason), std::string::npos) << message;
  }
  remove(path.c_str());
}

// One journal line per row shape, written by the code before the row lists
// existed: both farm rows, and campaign_start with and without its fleet markers.
std::vector<std::string> GoldenRowLines() {
  std::vector<std::string> lines;
  for (std::string& line : StrSplit(ReadFileOrDie(TestdataPath("journal_rows.jsonl")), '\n')) {
    if (!line.empty()) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

// The bytes a decoded line re-encodes to.
Result<std::string> DecodeThenEncode(std::string_view line) {
  ASSIGN_OR_RETURN(JournalRow row, ParseJournalLine(line));
  ASSIGN_OR_RETURN(AnyRow typed, DecodeRow(row));
  return std::visit([&](const auto& r) { return RowEvent(row.at, row.worker, r); }, typed)
      .ToJsonLine();
}

TEST(JournalRowsGoldenTest, EveryRowTypeRoundTripsByteForByte) {
  std::set<size_t> shapes;
  for (const std::string& line : GoldenRowLines()) {
    Result<std::string> encoded = DecodeThenEncode(line);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString() << " in " << line;
    EXPECT_EQ(encoded.value(), line);
    shapes.insert(DecodeRow(ParseJournalLine(line).value()).value().index());
  }
  // Every row struct has a golden line.
  EXPECT_EQ(shapes.size(), std::variant_size_v<AnyRow>);
}

constexpr int kGoldenRowLines = 25;

TEST(JournalRowsGoldenTest, HavocCasesCoverEveryGoldenLine) {
  EXPECT_EQ(GoldenRowLines().size(), static_cast<size_t>(kGoldenRowLines));
}

// Havoc over each golden line: every mutation either decodes or fails cleanly,
// and whatever decodes re-encodes stably.
class JournalRowHavocTest : public ::testing::TestWithParam<int> {};

TEST_P(JournalRowHavocTest, StrictReaderSurvivesMutatedLines) {
  std::string golden = GoldenRowLines().at(static_cast<size_t>(GetParam()));
  RoundTripFn round_trip =
      [](const std::vector<uint8_t>& bytes) -> Result<std::vector<uint8_t>> {
    ASSIGN_OR_RETURN(std::string line, DecodeThenEncode(std::string_view(
                                           reinterpret_cast<const char*>(bytes.data()),
                                           bytes.size())));
    return std::vector<uint8_t>(line.begin(), line.end());
  };
  ExpectDecoderSurvivesHavoc(std::vector<uint8_t>(golden.begin(), golden.end()),
                             round_trip, 20261700 + static_cast<uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(EveryRowShape, JournalRowHavocTest,
                         ::testing::Range(0, kGoldenRowLines));

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

  // The deduped bug list matches one-to-one, in order: each loaded record is the
  // live record, field for field.
  ASSERT_EQ(report->bugs.size(), result->bugs.size());
  for (size_t i = 0; i < report->bugs.size(); ++i) {
    const BugReport& from_journal = report->bugs[i].bug;
    EXPECT_TRUE(from_journal == result->bugs[i]) << "bug " << i;
    // Every bug carries a crash dump with real forensics content.
    EXPECT_FALSE(from_journal.program_text.empty());
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
