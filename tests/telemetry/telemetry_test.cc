// Telemetry subsystem tests: registry semantics (idempotent registration, snapshot
// Diff/Merge), concurrent writers against a snapshotting reader (the TSan target),
// journal drop accounting under a tiny buffer, deterministic span ids, the snapshot
// emitter's interval/frontier rules, the flight recorder's bounded rings and dump
// determinism, and the campaign-level contract that a telemetry-consuming run is
// bit-identical to a telemetry-off run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "src/core/fuzzer.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/os/all_oses.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/rows.h"
#include "src/telemetry/snapshot.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace eof {
namespace telemetry {
namespace {

TEST(MetricsRegistryTest, RegistrationIsIdempotentWithStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("link.transactions");
  Counter* b = registry.RegisterCounter("link.transactions");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);

  Gauge* g1 = registry.RegisterGauge("exec.local_coverage");
  Gauge* g2 = registry.RegisterGauge("exec.local_coverage");
  EXPECT_EQ(g1, g2);

  Histogram* h1 = registry.RegisterHistogram("span.reflash_us", {10, 100});
  Histogram* h2 = registry.RegisterHistogram("span.reflash_us", {99999});
  EXPECT_EQ(h1, h2);  // existing bounds win
}

TEST(MetricsRegistryTest, SnapshotCapturesAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.RegisterCounter("c")->Add(7);
  registry.RegisterGauge("g")->Set(42);
  Histogram* h = registry.RegisterHistogram("h", {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(5000);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("c"), 7u);
  EXPECT_EQ(snapshot.GaugeValue("g"), 42u);
  EXPECT_EQ(snapshot.CounterValue("missing"), 0u);
  const HistogramSnapshot& hist = snapshot.histograms.at("h");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.sum, 5055u);
  ASSERT_EQ(hist.buckets.size(), 3u);
  EXPECT_EQ(hist.buckets[0], 1u);  // <= 10
  EXPECT_EQ(hist.buckets[1], 1u);  // <= 100
  EXPECT_EQ(hist.buckets[2], 1u);  // overflow
}

TEST(MetricsSnapshotTest, DiffIsolatesAProbeWindow) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("c");
  Gauge* g = registry.RegisterGauge("g");
  c->Add(10);
  g->Set(1);
  MetricsSnapshot before = registry.Snapshot();
  c->Add(5);
  g->Set(9);
  MetricsSnapshot delta = registry.Snapshot().Diff(before);
  EXPECT_EQ(delta.CounterValue("c"), 5u);
  EXPECT_EQ(delta.GaugeValue("g"), 9u);  // gauges keep the later level
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndMaxesGauges) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.RegisterCounter("c")->Add(2);
  b.RegisterCounter("c")->Add(40);
  b.RegisterCounter("only_b")->Add(1);
  a.RegisterGauge("g")->Set(7);
  b.RegisterGauge("g")->Set(3);
  a.RegisterHistogram("h", {10})->Observe(4);
  b.RegisterHistogram("h", {10})->Observe(400);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.CounterValue("c"), 42u);
  EXPECT_EQ(merged.CounterValue("only_b"), 1u);
  EXPECT_EQ(merged.GaugeValue("g"), 7u);
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
  EXPECT_EQ(merged.histograms.at("h").sum, 404u);
}

// The TSan target: hammer one registry from several writer threads while a reader
// snapshots concurrently. Counter totals must be exact; snapshots must be torn-free
// enough to never exceed the final total.
TEST(MetricsRegistryTest, ConcurrentWritersAndSnapshotReader) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("exec.execs");
  Histogram* histogram = registry.RegisterHistogram("span.exec_us", {100, 1000});
  std::atomic<bool> stop(false);

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = registry.Snapshot();
      EXPECT_LE(snapshot.CounterValue("exec.execs"), kWriters * kPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, counter, histogram, w] {
      // Concurrent registration of the same and of distinct names must be safe too.
      Gauge* gauge =
          registry.RegisterGauge("exec.worker" + std::to_string(w) + ".gauge");
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        histogram->Observe(i % 2000);
        gauge->Set(i);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(final_snapshot.CounterValue("exec.execs"), kWriters * kPerWriter);
  EXPECT_EQ(final_snapshot.histograms.at("span.exec_us").count, kWriters * kPerWriter);
}

TEST(JournalTest, MemorySinkDropsAndCountsBeyondCapacity) {
  MemoryEventSink sink(/*capacity=*/2);
  Event event;
  event.type = "new_coverage";
  EXPECT_TRUE(sink.Emit(event));
  EXPECT_TRUE(sink.Emit(event));
  EXPECT_FALSE(sink.Emit(event));
  EXPECT_FALSE(sink.Emit(event));
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.Events().size(), 2u);
}

TEST(JournalTest, ConcurrentEmittersNeverLoseTheCount) {
  // Tiny capacity forces the drop path under contention; kept + dropped must equal
  // the number of Emit calls exactly.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  MemoryEventSink sink(/*capacity=*/64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      Event event;
      event.type = "liveness_reset";
      for (int i = 0; i < kPerThread; ++i) {
        sink.Emit(event);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(sink.Events().size() + sink.dropped(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(sink.Events().size(), 64u);
}

TEST(JournalTest, EventRendersAsOneJsonObject) {
  EXPECT_EQ(RowEvent(1500, 2, BugRow{7, "log\"mon\"", "panic"}).ToJsonLine(),
            "{\"type\":\"bug\",\"t_us\":1500,\"worker\":2,\"catalog_id\":7,"
            "\"detector\":\"log\\\"mon\\\"\",\"kind\":\"panic\"}");
  FleetFarmSnapshotRow farm;
  farm.execs_per_vsec = 2.5;
  EXPECT_NE(RowEvent(0, -1, farm).ToJsonLine().find(",\"execs_per_vsec\":2.5000,"),
            std::string::npos);
}

TEST(JournalTest, FileSinkWritesParseableLinesAndFlushes) {
  std::string path = ::testing::TempDir() + "/telemetry_file_sink.jsonl";
  auto sink_or = FileEventSink::Open(path, /*buffer_lines=*/4);
  ASSERT_TRUE(sink_or.ok());
  std::unique_ptr<FileEventSink> sink = std::move(sink_or).value();
  Event event;
  event.type = "campaign_start";
  for (int i = 0; i < 10; ++i) {
    event.at = static_cast<VirtualTime>(i);
    EXPECT_TRUE(sink->Emit(event));
  }
  sink->Flush();
  FILE* file = fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  int lines = 0;
  int c;
  while ((c = fgetc(file)) != EOF) {
    if (c == '\n') {
      ++lines;
    }
  }
  fclose(file);
  EXPECT_EQ(lines, 10);
  EXPECT_EQ(sink->dropped(), 0u);
  remove(path.c_str());
}

// A full line buffer reaches the file itself, not a stdio buffer: the fleet
// journal (buffer_lines = 1) is tailed while the orchestrator serves.
TEST(JournalTest, FullLineBufferIsVisibleBeforeFlush) {
  std::string path = ::testing::TempDir() + "/telemetry_live_sink.jsonl";
  auto count_lines = [&path] {
    FILE* file = fopen(path.c_str(), "rb");
    int lines = 0;
    for (int c; file != nullptr && (c = fgetc(file)) != EOF;) {
      lines += c == '\n';
    }
    if (file != nullptr) {
      fclose(file);
    }
    return lines;
  };
  auto sink_or = FileEventSink::Open(path, /*buffer_lines=*/1);
  ASSERT_TRUE(sink_or.ok());
  std::unique_ptr<FileEventSink> sink = std::move(sink_or).value();
  Event event;
  event.type = "lease_grant";
  for (int i = 1; i <= 3; ++i) {
    event.at = static_cast<VirtualTime>(i);
    EXPECT_TRUE(sink->Emit(event));
    EXPECT_EQ(count_lines(), i);
  }
  sink.reset();
  remove(path.c_str());
}

TEST(TracerTest, SpanIdsAreSeedDeterministicAndDurationsLand) {
  MetricsRegistry reg_a;
  MetricsRegistry reg_b;
  Tracer tracer_a(&reg_a, /*session_seed=*/11, /*worker=*/0, nullptr);
  Tracer tracer_b(&reg_b, /*session_seed=*/11, /*worker=*/0, nullptr);
  Tracer other(&reg_b, /*session_seed=*/12, /*worker=*/0, nullptr);

  Tracer::Span s1 = tracer_a.Begin("reflash", 100);
  Tracer::Span s2 = tracer_b.Begin("reflash", 100);
  EXPECT_EQ(s1.id, s2.id);  // same seed, same sequence -> same id
  EXPECT_NE(s1.id, other.Begin("reflash", 100).id);

  tracer_a.End(s1, 350);
  MetricsSnapshot snapshot = reg_a.Snapshot();
  const HistogramSnapshot& hist = snapshot.histograms.at("span.reflash_us");
  EXPECT_EQ(hist.count, 1u);
  EXPECT_EQ(hist.sum, 250u);
}

TEST(TracerTest, JournaledSpanCarriesBeginAndDuration) {
  MetricsRegistry registry;
  MemoryEventSink sink;
  Tracer tracer(&registry, /*session_seed=*/3, /*worker=*/1, &sink);
  Tracer::Span span = tracer.Begin("deploy", 1000);
  tracer.End(span, 4000, /*journal=*/true);
  auto events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "span");
  EXPECT_EQ(events[0].at, 4000u);
  EXPECT_EQ(events[0].worker, 1);
}

TEST(SnapshotEmitterTest, BoardRowsFollowEachClockFarmRowsFollowTheFrontier) {
  MetricsRegistry board0;
  MetricsRegistry board1;
  board0.RegisterCounter("exec.execs")->Add(10);
  board1.RegisterCounter("exec.execs")->Add(20);
  MemoryEventSink sink;
  SnapshotEmitter emitter({&board0, &board1}, /*view=*/nullptr, &sink,
                          /*interval=*/100, /*budget=*/1000);

  emitter.MaybeEmit(0, 250);  // board 0 crossed t=100 and t=200
  auto events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "board_snapshot");
  EXPECT_EQ(events[0].at, 100u);
  EXPECT_EQ(events[1].at, 200u);

  // Farm rows wait for the slowest active board: only when board 1 reaches t>=100
  // does the frontier cross the first boundary.
  emitter.MaybeEmit(1, 120);
  events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].type, "board_snapshot");
  EXPECT_EQ(events[2].worker, 1);
  EXPECT_EQ(events[3].type, "farm_snapshot");
  EXPECT_EQ(events[3].at, 100u);
  // The farm row merges both boards' registries.
  Result<JournalRow> farm = ParseJournalLine(events[3].ToJsonLine());
  ASSERT_TRUE(farm.ok()) << farm.status().ToString();
  Result<AnyRow> typed = DecodeRow(farm.value());
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  EXPECT_EQ(std::get<FarmSnapshotRow>(typed.value()).board.execs, 30u);

  // A finished worker stops holding the frontier back.
  emitter.WorkerDone(1);
  events = sink.Events();
  EXPECT_EQ(events.back().type, "farm_snapshot");
  EXPECT_EQ(events.back().at, 200u);
}

TEST(FlightRecorderTest, RingsBoundHistoryAndOverwriteOldestFirst) {
  FlightRecorder::Options options;
  options.port_op_capacity = 4;
  options.uart_line_capacity = 2;
  options.event_capacity = 3;
  FlightRecorder recorder(options);

  for (uint64_t i = 0; i < 6; ++i) {
    recorder.RecordPortOp(/*at=*/i * 10, FlightPortOp::kRead, /*address=*/0x1000 + i,
                          /*size=*/4, /*ok=*/true);
  }
  recorder.RecordUartText(5, "one\ntwo\nthree");
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.RecordEvent(i, "exec_begin", i);
  }

  FlightDump dump = recorder.Dump("test", /*at=*/999);
  EXPECT_EQ(dump.reason, "test");
  EXPECT_EQ(dump.at, 999u);
  EXPECT_EQ(dump.port_ops_seen, 6u);
  ASSERT_EQ(dump.port_ops.size(), 4u);  // capacity bound
  // Oldest kept entry first: appends 2..5 survive in order.
  EXPECT_EQ(dump.port_ops.front().address, 0x1002u);
  EXPECT_EQ(dump.port_ops.back().address, 0x1005u);

  EXPECT_EQ(dump.uart_lines_seen, 3u);
  ASSERT_EQ(dump.uart_tail.size(), 2u);
  EXPECT_EQ(dump.uart_tail[0], "two");
  EXPECT_EQ(dump.uart_tail[1], "three");

  EXPECT_EQ(dump.events_seen, 5u);
  ASSERT_EQ(dump.events.size(), 3u);
  EXPECT_EQ(dump.events.front().value, 2u);
  EXPECT_EQ(dump.events.back().value, 4u);
}

TEST(FlightRecorderTest, UartLinesSplitTruncateAndSkipEmpties) {
  FlightRecorder recorder;
  std::string long_line(3 * kUartLineCapacity, 'x');
  recorder.RecordUartText(1, "\n\nfirst\n" + long_line + "\n");
  FlightDump dump = recorder.Dump("test", 2);
  ASSERT_EQ(dump.uart_tail.size(), 2u);  // blank lines are not recorded
  EXPECT_EQ(dump.uart_tail[0], "first");
  EXPECT_EQ(dump.uart_tail[1].size(), kUartLineCapacity);  // truncated, not dropped
  EXPECT_EQ(dump.uart_lines_seen, 2u);
}

TEST(FlightRecorderTest, IdenticalHistoriesRenderBitIdenticalDumps) {
  auto record = [](FlightRecorder* recorder) {
    recorder->RecordPortOp(10, FlightPortOp::kWrite, 0x2000, 64, true);
    recorder->RecordPortOp(20, FlightPortOp::kContinue, 0x08000100, 0, true);
    recorder->RecordUartText(25, "assertion failed: q != NULL\n");
    recorder->RecordEvent(30, "exec_begin", 7);
    recorder->RecordPortOp(40, FlightPortOp::kRead, 0x2000, 4, false);
  };
  FlightRecorder a;
  FlightRecorder b;
  record(&a);
  record(&b);
  FlightDump dump_a = a.Dump("crash", 50);
  FlightDump dump_b = b.Dump("crash", 50);
  EXPECT_EQ(dump_a.reason, dump_b.reason);
  EXPECT_EQ(dump_a.at, dump_b.at);
  EXPECT_EQ(dump_a.port_ops_seen, dump_b.port_ops_seen);
  EXPECT_EQ(dump_a.uart_lines_seen, dump_b.uart_lines_seen);
  EXPECT_EQ(dump_a.events_seen, dump_b.events_seen);
  EXPECT_EQ(dump_a.PortOpsText(), dump_b.PortOpsText());
  EXPECT_EQ(dump_a.UartTailText(), dump_b.UartTailText());
  EXPECT_EQ(dump_a.EventsText(), dump_b.EventsText());

  // The text columns carry what was recorded.
  EXPECT_EQ(dump_a.reason, "crash");
  EXPECT_NE(dump_a.UartTailText().find("assertion failed: q != NULL"), std::string::npos);
  EXPECT_NE(dump_a.EventsText().find("exec_begin=7"), std::string::npos);
  EXPECT_NE(dump_a.PortOpsText().find("FAIL"), std::string::npos);
  // The exact column formats the crash_dump and bug_report rows carry.
  EXPECT_EQ(dump_a.PortOpsText(),
            "t=10 wr addr=0x2000 size=64\n"
            "t=20 cont addr=0x8000100 size=0\n"
            "t=40 rd addr=0x2000 size=4 FAIL");
  EXPECT_EQ(dump_a.EventsText(), "t=30 exec_begin=7");
}

TEST(FlightRecorderTest, DebugPortFeedsTheAttachedRecorder) {
  Board board(BoardSpecByName("stm32f407-disco").value());
  DebugPort port(&board);
  ASSERT_TRUE(port.Connect().ok());
  board.LatchFault(0x1000, "test: park the core past boot");

  FlightRecorder recorder;
  port.set_flight_recorder(&recorder);
  uint64_t ram = board.spec().ram_base;
  ASSERT_TRUE(port.WriteMem(ram + 0x10, {1, 2, 3}).ok());
  (void)port.ReadMem(ram + 0x10, 3);
  (void)port.DrainUart();

  FlightDump dump = recorder.Dump("test", port.Now());
  ASSERT_GE(dump.port_ops.size(), 3u);
  EXPECT_EQ(dump.port_ops[0].op, FlightPortOp::kWrite);
  EXPECT_EQ(dump.port_ops[0].address, ram + 0x10);
  EXPECT_EQ(dump.port_ops[0].size, 3u);
  EXPECT_EQ(dump.port_ops[1].op, FlightPortOp::kRead);
  EXPECT_EQ(dump.port_ops.back().op, FlightPortOp::kUartDrain);

  // Detaching stops the feed.
  port.set_flight_recorder(nullptr);
  (void)port.ReadMem(ram + 0x10, 1);
  EXPECT_EQ(recorder.port_ops_seen(), dump.port_ops_seen);
}

// TSan target: distinct boards own distinct recorders and record from their own
// worker threads concurrently (the farm's confinement rule — no sharing).
TEST(FlightRecorderTest, DistinctBoardRecordersAreConcurrencySafe) {
  constexpr int kBoards = 4;
  constexpr uint64_t kOps = 20000;
  std::vector<std::unique_ptr<FlightRecorder>> recorders;
  for (int i = 0; i < kBoards; ++i) {
    recorders.push_back(std::make_unique<FlightRecorder>());
  }
  std::vector<std::thread> threads;
  for (int b = 0; b < kBoards; ++b) {
    threads.emplace_back([&recorders, b] {
      FlightRecorder* recorder = recorders[static_cast<size_t>(b)].get();
      for (uint64_t i = 0; i < kOps; ++i) {
        recorder->RecordPortOp(i, FlightPortOp::kRead, i, 4, true);
        if (i % 64 == 0) {
          recorder->RecordUartText(i, "tick\n");
          recorder->RecordEvent(i, "exec_begin", i);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const auto& recorder : recorders) {
    EXPECT_EQ(recorder->port_ops_seen(), kOps);
  }
}

TEST(CampaignTelemetryTest, OpenFailureSurfacesAndEmptyPathMeansNoSink) {
  CampaignTelemetry::Options options;
  options.metrics_out = "/nonexistent-dir/metrics.jsonl";
  EXPECT_FALSE(CampaignTelemetry::Create(options).ok());

  options.metrics_out.clear();
  options.workers = 3;
  auto telemetry_or = CampaignTelemetry::Create(options);
  ASSERT_TRUE(telemetry_or.ok());
  EXPECT_EQ(telemetry_or.value()->sink(), nullptr);
  EXPECT_EQ(telemetry_or.value()->workers(), 3);
  EXPECT_EQ(telemetry_or.value()->emitter(), nullptr);
}

// Runs `config` silent and then journaled; expects bit-identical fuzzing results and
// returns the journal's text.
std::string ExpectJournalingChangesNothing(FuzzerConfig config, const std::string& journal,
                                           CampaignResult* silent_out) {
  EofFuzzer silent(config);
  auto silent_result = silent.Run();
  EXPECT_TRUE(silent_result.ok());

  config.metrics_out = ::testing::TempDir() + "/" + journal;
  config.metrics_interval = 15 * kVirtualSecond;
  EofFuzzer journaled(config);
  auto journaled_result = journaled.Run();
  EXPECT_TRUE(journaled_result.ok());
  if (!silent_result.ok() || !journaled_result.ok()) {
    return "";
  }

  const CampaignResult& a = silent_result.value();
  const CampaignResult& b = journaled_result.value();
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.series.size(), b.series.size());
  for (size_t i = 0; i < std::min(a.series.size(), b.series.size()); ++i) {
    EXPECT_EQ(a.series[i].time, b.series[i].time);
    EXPECT_EQ(a.series[i].coverage, b.series[i].coverage);
  }
  // A bug's record, its dump columns and last_restore included, must not depend
  // on whether a journal was attached.
  EXPECT_EQ(a.bugs.size(), b.bugs.size());
  for (size_t i = 0; i < std::min(a.bugs.size(), b.bugs.size()); ++i) {
    EXPECT_EQ(a.bugs[i].dump_reason, b.bugs[i].dump_reason) << "bug " << i;
    EXPECT_EQ(a.bugs[i].uart_tail, b.bugs[i].uart_tail) << "bug " << i;
    EXPECT_EQ(a.bugs[i].port_ops, b.bugs[i].port_ops) << "bug " << i;
    EXPECT_EQ(a.bugs[i].events, b.bugs[i].events) << "bug " << i;
    EXPECT_EQ(a.bugs[i].last_restore, b.bugs[i].last_restore) << "bug " << i;
    EXPECT_TRUE(a.bugs[i] == b.bugs[i]) << "bug " << i;
  }
  *silent_out = a;

  std::ifstream file(config.metrics_out);
  std::string text((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  remove(config.metrics_out.c_str());
  return text;
}

// The campaign-level determinism contract: with --jobs 1, a campaign writing a
// telemetry journal must produce bit-identical fuzzing results (coverage, series,
// execs, bugs and their crash dumps) to the same campaign with telemetry off.
TEST(CampaignTelemetryTest, JournalingCampaignIsBitIdenticalToSilentOne) {
  ASSERT_TRUE(RegisterAllOses().ok());
  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = 11;
  config.budget = 90 * kVirtualSecond;
  config.sample_points = 6;
  CampaignResult silent;
  std::string journal = ExpectJournalingChangesNothing(config, "determinism_probe.jsonl", &silent);
  EXPECT_FALSE(journal.empty());

  // Crash-heavy: rtthread crashes within seconds, and snapshot mode adds warm restores
  // and validator cold boots to the paths that dump.
  config.os_name = "rtthread";
  config.budget = 10 * kVirtualMinute;
  config.restore_mode = RestoreMode::kSnapshot;
  journal = ExpectJournalingChangesNothing(config, "determinism_crashes.jsonl", &silent);
  EXPECT_GT(silent.crashes, 0u);
  EXPECT_FALSE(silent.bugs.empty());
  EXPECT_NE(journal.find("{\"type\":\"crash_dump\""), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace eof
