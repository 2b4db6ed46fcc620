// eof — command-line front end, the operator's entry point (the role of the Golang engine
// binary in the paper's released tool).
//
//   eof list-targets                          supported OSs, boards, and API counts
//   eof mine-specs <os>                       print the validated Syzlang for a target
//   eof fuzz <os> [minutes] [seed] [board]    run a campaign, print live-ish summary
//   eof report <journal.jsonl> [--json]       analyze a --metrics-out campaign journal
//   eof repro <os> <bug-id>                   run a catalog bug's reproducer
//   eof bugs                                  print the bug catalog

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/agent/wire.h"
#include "src/common/strings.h"
#include "src/fleet/observer.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/status_http.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/core/board_farm.h"
#include "src/core/bug_catalog.h"
#include "src/core/deployment.h"
#include "src/core/fuzzer.h"
#include "src/core/monitors.h"
#include "src/core/replay.h"
#include "src/hw/board_catalog.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/spec/spec_miner.h"
#include "src/telemetry/report.h"
#include "src/telemetry/trace_export.h"

using namespace eof;

namespace {

int Usage() {
  fprintf(stderr,
          "usage:\n"
          "  eof list-targets\n"
          "  eof mine-specs <os>\n"
          "  eof fuzz <os> [minutes=60] [seed=1] [board=default] [--jobs N]\n"
          "           [--restore-mode reflash|snapshot] [--trim]\n"
          "           [--overlapped-drain on|off]\n"
          "           [--metrics-out FILE.jsonl] [--metrics-interval SECONDS]\n"
          "  eof report <journal.jsonl|dir>... [--journal FILE]... [--json]\n"
          "           [--trace-out FILE.json]\n"
          "  eof serve <os> [minutes=60] [seed=1] [board=default] [--port N]\n"
          "           [--shards N] [--pool N] [--priority N] [--campaign-id ID]\n"
          "           [--heartbeat-interval MS] [--lease-timeout MS]\n"
          "           [--restore-mode reflash|snapshot] [--trim]\n"
          "           [--metrics-out FILE.jsonl] [--metrics-interval SECONDS]\n"
          "           [--status-port N] [--journal-rotate-mb N]\n"
          "  eof worker --connect HOST:PORT [--boards N] [--name S]\n"
          "           [--metrics-out FILE.jsonl]\n"
          "  eof top --connect HOST:PORT [--campaign ID] [--interval SECONDS]\n"
          "           [--once]\n"
          "  eof repro <os> <bug-id>\n"
          "  eof replay <os> <reproducer-file>\n"
          "  eof trim <os> <reproducer-file> [board]\n"
          "  eof bugs\n");
  return 2;
}

int ListTargets() {
  printf("%-10s %-18s %-6s %s\n", "OS", "default board", "APIs", "description");
  for (const std::string& name : OsRegistry::Instance().Names()) {
    OsInfo info = OsRegistry::Instance().Find(name).value();
    std::unique_ptr<Os> os = info.factory();
    printf("%-10s %-18s %-6zu %s\n", name.c_str(), info.default_board.c_str(),
           os->registry().size(), info.description.c_str());
  }
  printf("\nboards:\n");
  for (const std::string& board : KnownBoardNames()) {
    BoardSpec spec = BoardSpecByName(board).value();
    printf("  %-18s %-8s %4u MHz  %4llu KiB RAM  %2d hw-bp%s\n", board.c_str(),
           ArchName(spec.arch), spec.clock_mhz,
           static_cast<unsigned long long>(spec.ram_bytes / 1024), spec.max_hw_breakpoints,
           spec.emulated ? "  (emulated)" : "");
  }
  return 0;
}

int MineSpecs(const std::string& os_name) {
  auto info = OsRegistry::Instance().Find(os_name);
  if (!info.ok()) {
    fprintf(stderr, "unknown OS '%s'\n", os_name.c_str());
    return 1;
  }
  std::unique_ptr<Os> os = info.value().factory();
  auto mined = spec::MineValidatedSpecs(os->registry());
  if (!mined.ok()) {
    fprintf(stderr, "%s\n", mined.status().ToString().c_str());
    return 1;
  }
  fputs(mined.value().source.c_str(), stdout);
  fprintf(stderr, "# %zu specifications validated\n", mined.value().specs.calls.size());
  return 0;
}

// Every flag's value after parsing; a field keeps its default when its flag is
// absent. FlagTable() below says which subcommand takes which flag.
struct Flags {
  uint64_t jobs = 1;
  std::string restore_mode = "reflash";
  std::string metrics_out;
  uint64_t metrics_interval_s = 0;  // 0 = keep the FuzzerConfig default
  bool trim = false;
  std::string overlapped_drain = "on";
  bool json = false;
  std::vector<std::string> journals;
  std::string trace_out;
  uint64_t port = 0;  // 0 = ephemeral (serve prints the bound port)
  uint64_t shards = 1;
  uint64_t pool = 64;
  uint64_t priority = 1;
  std::string campaign_id = "campaign";
  uint64_t heartbeat_ms = 1000;
  uint64_t lease_ms = 5000;
  uint64_t status_port = UINT64_MAX;  // UINT64_MAX = no status endpoint; 0 = ephemeral
  uint64_t rotate_mb = 0;             // 0 = unrotated journal
  std::string connect;
  uint64_t boards = 1;
  std::string worker_name = "worker";
  std::string top_campaign;  // empty = every campaign
  uint64_t interval_s = 2;
  bool once = false;
};

// The campaign `fuzz` runs and `serve` shards.
FuzzerConfig CampaignConfig(const std::string& os_name, uint64_t minutes, uint64_t seed,
                            const std::string& board, const Flags& flags) {
  FuzzerConfig config;
  config.os_name = os_name;
  config.board_name = board;
  config.seed = seed;
  config.budget = minutes * kVirtualMinute;
  config.sample_points = 12;
  config.restore_mode =
      flags.restore_mode == "snapshot" ? RestoreMode::kSnapshot : RestoreMode::kReflash;
  config.trim = flags.trim;
  config.overlapped_drain = flags.overlapped_drain == "on";
  if (flags.metrics_interval_s > 0) {
    config.metrics_interval = flags.metrics_interval_s * kVirtualSecond;
  }
  return config;
}

// The BUG sections `eof fuzz` and `eof serve` end with, one per bug.
void PrintBugs(const std::vector<BugReport>& bugs) {
  for (const BugReport& bug : bugs) {
    printf("\nBUG #%d %s [%s monitor]\n%s\nreproducer:\n%s", bug.catalog_id,
           bug.operation.empty() ? "(unknown)" : bug.operation.c_str(), bug.detector.c_str(),
           bug.excerpt.c_str(), bug.program_text.c_str());
  }
}

int Fuzz(const std::string& os_name, uint64_t minutes, uint64_t seed,
         const std::string& board, const Flags& flags) {
  FuzzerConfig config = CampaignConfig(os_name, minutes, seed, board, flags);
  config.metrics_out = flags.metrics_out;
  const int jobs = static_cast<int>(flags.jobs);
  printf("fuzzing %s for %llu virtual minutes (seed %llu, %d board%s, %s restores)...\n",
         os_name.c_str(), static_cast<unsigned long long>(minutes),
         static_cast<unsigned long long>(seed), jobs, jobs == 1 ? "" : "s",
         flags.restore_mode.c_str());
  Result<CampaignResult> result = BoardFarm(config, jobs).Run();
  if (!result.ok()) {
    fprintf(stderr, "campaign failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const CampaignResult& campaign = result.value();
  for (const CampaignSample& sample : campaign.series) {
    printf("  t=%5llum  coverage=%llu\n",
           static_cast<unsigned long long>(sample.time / kVirtualMinute),
           static_cast<unsigned long long>(sample.coverage));
  }
  printf("execs=%llu coverage=%llu crashes=%llu stalls=%llu restores=%llu corpus=%llu\n",
         static_cast<unsigned long long>(campaign.execs),
         static_cast<unsigned long long>(campaign.final_coverage),
         static_cast<unsigned long long>(campaign.crashes),
         static_cast<unsigned long long>(campaign.stalls),
         static_cast<unsigned long long>(campaign.restores),
         static_cast<unsigned long long>(campaign.corpus_size));
  if (config.restore_mode == RestoreMode::kSnapshot) {
    printf("snapshot_restores=%llu snapshot_bytes=%llu rejected_sightings=%llu\n",
           static_cast<unsigned long long>(campaign.snapshot_restores),
           static_cast<unsigned long long>(campaign.snapshot_bytes),
           static_cast<unsigned long long>(campaign.bugs_rejected));
  }
  if (config.trim) {
    printf("trim_kept_calls=%llu trim_removed_calls=%llu\n",
           static_cast<unsigned long long>(campaign.trim_kept_calls),
           static_cast<unsigned long long>(campaign.trim_removed_calls));
  }
  PrintBugs(campaign.bugs);
  return 0;
}

bool ReadFileText(const std::string& path, std::string* text) {
  FILE* file = fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  char buffer[4096];
  size_t got;
  while ((got = fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text->append(buffer, got);
  }
  fclose(file);
  return true;
}

int Replay(const std::string& os_name, const std::string& path) {
  std::string text;
  if (!ReadFileText(path, &text)) {
    return 1;
  }
  auto outcome = ReplayReproducer(os_name, text);
  if (!outcome.ok()) {
    fprintf(stderr, "replay failed: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  if (!outcome.value().crashed) {
    printf("no crash: the reproducer ran to completion\n");
    return 0;
  }
  printf("CRASH [%s monitor]", outcome.value().detector.c_str());
  if (outcome.value().catalog_id != 0) {
    const BugInfo* info = FindBug(outcome.value().catalog_id);
    printf(" -> bug #%d (%s)", outcome.value().catalog_id,
           info != nullptr ? info->operation.c_str() : "?");
  }
  printf("\n%s\n", outcome.value().crash_text.c_str());
  return 0;
}

int Trim(const std::string& os_name, const std::string& path, const std::string& board) {
  std::string text;
  if (!ReadFileText(path, &text)) {
    return 1;
  }
  auto outcome = TrimReproducer(os_name, text, board);
  if (!outcome.ok()) {
    fprintf(stderr, "trim failed: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  const TrimOutcome& trim = outcome.value();
  fprintf(stderr, "trim: %zu -> %zu calls (%zu removed), coverage %llu -> %llu (%s)\n",
          trim.original_calls, trim.kept_calls, trim.removed_calls,
          static_cast<unsigned long long>(trim.original_coverage),
          static_cast<unsigned long long>(trim.trimmed_coverage),
          trim.coverage_preserved ? "preserved" : "NOT preserved — keep the original");
  fputs(trim.trimmed_text.c_str(), stdout);
  return trim.coverage_preserved ? 0 : 1;
}

// Expands a positional report argument: a directory becomes its *.jsonl files
// in name order (a fleet run drops one journal per process into one directory);
// anything else passes through as a file path. Partial files — `*.tmp`
// leftovers and zero-byte journals from a SIGKILLed writer — are skipped with
// a warning rather than failing the strict parse gate downstream.
bool ExpandJournalArg(const std::string& path, std::vector<std::string>* out) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    out->push_back(path);
    return true;
  }
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    fprintf(stderr, "cannot open directory %s\n", path.c_str());
    return false;
  }
  std::vector<std::string> found;
  for (struct dirent* entry = readdir(dir); entry != nullptr;
       entry = readdir(dir)) {
    std::string name = entry->d_name;
    if (name.size() > 4 && name.rfind(".tmp") == name.size() - 4) {
      fprintf(stderr, "warning: skipping temporary file %s/%s\n", path.c_str(),
              name.c_str());
      continue;
    }
    if (name.size() > 6 && name.rfind(".jsonl") == name.size() - 6) {
      std::string full = path + "/" + name;
      struct stat fs;
      if (stat(full.c_str(), &fs) == 0 && fs.st_size == 0) {
        fprintf(stderr,
                "warning: skipping empty journal %s (killed writer?)\n",
                full.c_str());
        continue;
      }
      found.push_back(std::move(full));
    }
  }
  closedir(dir);
  if (found.empty()) {
    fprintf(stderr, "no usable *.jsonl journals in directory %s\n", path.c_str());
    return false;
  }
  std::sort(found.begin(), found.end());
  out->insert(out->end(), found.begin(), found.end());
  return true;
}

int Report(const std::vector<std::string>& paths, bool json,
           const std::string& trace_out) {
  auto rows = telemetry::LoadMergedJournalRows(paths);
  if (!rows.ok()) {
    fprintf(stderr, "report failed: %s\n", rows.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    std::string trace = telemetry::RenderChromeTrace(rows.value());
    FILE* file = fopen(trace_out.c_str(), "w");
    if (file == nullptr) {
      fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
    size_t written = fwrite(trace.data(), 1, trace.size(), file);
    fclose(file);
    if (written != trace.size()) {
      fprintf(stderr, "short write to %s\n", trace_out.c_str());
      return 1;
    }
    fprintf(stderr, "wrote Chrome trace (%zu bytes) to %s\n", trace.size(),
            trace_out.c_str());
  }
  telemetry::CampaignReport report = telemetry::BuildReport(rows.value());
  fputs(json ? report.RenderJson().c_str() : report.RenderText().c_str(), stdout);
  return 0;
}

int Serve(const std::string& os_name, uint64_t minutes, uint64_t seed,
          const std::string& board, const Flags& flags) {
  fleet::Orchestrator::Options fleet_options;
  fleet_options.board_pool = static_cast<int>(flags.pool);
  fleet_options.heartbeat_interval_ms = flags.heartbeat_ms;
  fleet_options.lease_timeout_ms = flags.lease_ms;
  fleet_options.journal_rotate_bytes = flags.rotate_mb * 1024 * 1024;
  fleet_options.metrics_out = flags.metrics_out;
  auto orchestrator = fleet::Orchestrator::Create(std::move(fleet_options));
  if (!orchestrator.ok()) {
    fprintf(stderr, "serve failed: %s\n", orchestrator.status().ToString().c_str());
    return 1;
  }
  fleet::FleetCampaignSpec spec;
  spec.campaign_id = flags.campaign_id;
  spec.config = CampaignConfig(os_name, minutes, seed, board, flags);
  spec.shards = static_cast<int>(flags.shards);
  spec.weight = static_cast<int>(flags.priority);
  Status added = orchestrator.value()->AddCampaign(spec);
  if (!added.ok()) {
    fprintf(stderr, "serve failed: %s\n", added.ToString().c_str());
    return 1;
  }
  uint16_t bound_port = 0;
  auto listener = fleet::ListenTcp(static_cast<uint16_t>(flags.port), &bound_port);
  if (!listener.ok()) {
    fprintf(stderr, "serve failed: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  // Read-only status endpoint: /metrics renders the same bounded-staleness
  // snapshot the fleet observers poll, plus the orchestrator's own registry.
  std::unique_ptr<fleet::StatusHttpServer> status_server;
  if (flags.status_port != UINT64_MAX) {
    fleet::Orchestrator* orch = orchestrator.value().get();
    fleet::StatusHttpServer::Handlers handlers;
    handlers.metrics = [orch] {
      return fleet::RenderFleetMetrics(orch->HandleStatus(fleet::StatusRequestMsg{}),
                                       orch->MetricsSnapshot());
    };
    auto started = fleet::StatusHttpServer::Start(
        static_cast<uint16_t>(flags.status_port), std::move(handlers));
    if (!started.ok()) {
      fprintf(stderr, "serve failed: %s\n", started.status().ToString().c_str());
      return 1;
    }
    status_server = std::move(started.value());
    printf("status endpoint on http://127.0.0.1:%u (GET /metrics, /healthz)\n",
           status_server->bound_port());
  }
  printf("serving campaign %s on 127.0.0.1:%u (%d shard%s, %llu virtual minutes, "
         "seed %llu)\n",
         flags.campaign_id.c_str(), bound_port, spec.shards, spec.shards == 1 ? "" : "s",
         static_cast<unsigned long long>(minutes),
         static_cast<unsigned long long>(seed));
  fflush(stdout);
  Status served = orchestrator.value()->Serve(listener.value().get());
  if (status_server != nullptr) {
    status_server->Stop();
  }
  if (!served.ok()) {
    fprintf(stderr, "serve failed: %s\n", served.ToString().c_str());
    return 1;
  }
  for (const fleet::FleetCampaignResult& fleet_result : orchestrator.value()->Results()) {
    const CampaignResult& campaign = fleet_result.result;
    printf("campaign %s: execs=%llu coverage=%llu crashes=%llu corpus=%llu "
           "bugs=%zu\n",
           fleet_result.campaign_id.c_str(),
           static_cast<unsigned long long>(campaign.execs),
           static_cast<unsigned long long>(campaign.final_coverage),
           static_cast<unsigned long long>(campaign.crashes),
           static_cast<unsigned long long>(campaign.corpus_size), campaign.bugs.size());
    auto counter = [&](const char* name) {
      return static_cast<unsigned long long>(fleet_result.metrics.CounterValue(name));
    };
    printf("fleet: workers=%llu leases_granted=%llu reclaimed=%llu lost=%llu "
           "corpus_syncs=%llu\n",
           static_cast<unsigned long long>(fleet_result.workers_served),
           counter("fleet.leases_granted"), counter("fleet.leases_reclaimed"),
           counter("fleet.workers_lost"), counter("fleet.corpus_syncs"));
    PrintBugs(campaign.bugs);
  }
  return 0;
}

// Splits "HOST:PORT" with a strict port range check; prints the usage error
// itself and returns false on malformed input.
bool ParseHostPort(const std::string& connect, std::string* host, uint16_t* port) {
  size_t colon = connect.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= connect.size()) {
    fprintf(stderr, "eof: --connect wants HOST:PORT, got '%s'\n", connect.c_str());
    return false;
  }
  *host = connect.substr(0, colon);
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = strtoull(connect.c_str() + colon + 1, &end, 10);
  if (errno != 0 || *end != '\0' || parsed == 0 || parsed > 65535) {
    fprintf(stderr, "eof: --connect wants a port in [1, 65535], got '%s'\n",
            connect.c_str() + colon + 1);
    return false;
  }
  *port = static_cast<uint16_t>(parsed);
  return true;
}

int Worker(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(flags.connect, &host, &port)) {
    return Usage();
  }
  fleet::FleetWorker::Options options;
  options.name = flags.worker_name;
  options.capacity = static_cast<int>(flags.boards);
  options.metrics_out = flags.metrics_out;
  auto worker = fleet::FleetWorker::Create(std::move(options));
  if (!worker.ok()) {
    fprintf(stderr, "worker failed: %s\n", worker.status().ToString().c_str());
    return 1;
  }
  auto transport = fleet::ConnectTcp(host, port);
  if (!transport.ok()) {
    fprintf(stderr, "worker failed: %s\n", transport.status().ToString().c_str());
    return 1;
  }
  printf("worker %s connected to %s (capacity %llu)\n", flags.worker_name.c_str(),
         flags.connect.c_str(), static_cast<unsigned long long>(flags.boards));
  fflush(stdout);
  Status ran = worker.value()->Run(transport.value().get());
  if (!ran.ok()) {
    fprintf(stderr, "worker failed: %s\n", ran.ToString().c_str());
    return 1;
  }
  for (const CampaignResult& batch : worker.value()->batch_results()) {
    printf("batch: execs=%llu coverage=%llu crashes=%llu corpus=%llu\n",
           static_cast<unsigned long long>(batch.execs),
           static_cast<unsigned long long>(batch.final_coverage),
           static_cast<unsigned long long>(batch.crashes),
           static_cast<unsigned long long>(batch.corpus_size));
  }
  return 0;
}

// `eof top`: polling live monitor over the fleet status protocol. Each poll is
// one short-lived observer connection (StatusRequest/StatusReply/Goodbye), so
// a dead or restarted orchestrator costs one failed poll, not a wedged
// monitor. --once renders a single frame without clearing the screen, for
// scripting and CI.
int Top(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(flags.connect, &host, &port)) {
    return Usage();
  }
  // Poll history drives the exec-rate sparkline and plateau detection; keep a
  // bounded window so a long-running monitor never grows without bound.
  constexpr size_t kHistoryWindow = 32;
  std::vector<fleet::StatusReplyMsg> history;
  for (;;) {
    Status poll_status = OkStatus();
    auto transport = fleet::ConnectTcp(host, port);
    if (!transport.ok()) {
      poll_status = transport.status();
    } else {
      auto status = fleet::FetchStatus(transport.value().get(), flags.top_campaign,
                                       /*include_shards=*/true,
                                       /*timeout_ms=*/5000);
      transport.value()->Close();
      if (!status.ok()) {
        poll_status = status.status();
      } else {
        history.push_back(std::move(status.value()));
        if (history.size() > kHistoryWindow) {
          history.erase(history.begin());
        }
      }
    }
    if (!poll_status.ok()) {
      if (flags.once) {
        fprintf(stderr, "top failed: %s\n", poll_status.ToString().c_str());
        return 1;
      }
      fprintf(stderr, "top: poll failed: %s (retrying in %llus)\n",
              poll_status.ToString().c_str(),
              static_cast<unsigned long long>(flags.interval_s));
    } else {
      if (!flags.once) {
        fputs("\033[H\033[2J", stdout);  // cursor home + clear: plain redraw
      }
      fputs(fleet::RenderTopFrame(history).c_str(), stdout);
      fflush(stdout);
    }
    if (flags.once) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::seconds(flags.interval_s));
  }
}

int Bugs() {
  printf("%-3s %-10s %-10s %-17s %-22s %s\n", "#", "OS", "Scope", "Type", "Operation",
         "Status");
  for (const BugInfo& bug : BugCatalog()) {
    printf("%-3d %-10s %-10s %-17s %-22s %s\n", bug.id, bug.os.c_str(), bug.scope.c_str(),
           bug.bug_type.c_str(), bug.operation.c_str(), bug.confirmed ? "confirmed" : "");
  }
  return 0;
}

int Repro(const std::string& os_name, int bug_id) {
  const BugInfo* bug = FindBug(bug_id);
  if (bug == nullptr || bug->os != os_name) {
    fprintf(stderr, "bug #%d is not a %s bug (see `eof bugs`)\n", bug_id, os_name.c_str());
    return 1;
  }
  printf("note: reproducer sequences live in tests/os/bug_trigger_test.cc; running the\n"
         "gtest filter for bug #%d:\n  ./build/tests/bug_trigger_test "
         "--gtest_filter='*Bug%02d*'\n",
         bug_id, bug_id);
  printf("\n#%d %s / %s / %s — signature: \"%s\", detector: %s\n", bug->id, bug->os.c_str(),
         bug->scope.c_str(), bug->operation.c_str(), bug->signature.c_str(),
         bug->expected_detector.c_str());
  return 0;
}

// Reads a decimal integer: digits only, no sign, no overflow.
bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = strtoull(text.c_str(), &end, 10);
  // ERANGE: strtoull saturates on overflow, which would pass every range gate.
  return *end == '\0' && errno != ERANGE;
}

// One flag, declared once: the subcommands that take it, where its value lands,
// and what the value may be. The target's type is the value kind: a switch
// (bool), a bounded integer in [lo, hi] (uint64_t), a non-empty text that is one
// of `choices` when any are given (std::string), or a repeatable non-empty text
// (vector).
struct FlagSpec {
  const char* name;
  std::vector<std::string> commands;
  std::variant<bool*, uint64_t*, std::string*, std::vector<std::string>*> target;
  const char* wants = "";  // what the value is, for usage errors
  std::vector<std::string> choices = {};
  uint64_t lo = 0;
  uint64_t hi = UINT64_MAX;
};

std::vector<FlagSpec> FlagTable(Flags* f) {
  const std::vector<std::string> campaign = {"fuzz", "serve"};
  return {
      {"--jobs", {"fuzz"}, &f->jobs, "an integer", {}, 1, 1024},
      {"--restore-mode", campaign, &f->restore_mode, "", {"reflash", "snapshot"}},
      {"--metrics-out", {"fuzz", "serve", "worker"}, &f->metrics_out, "a file path"},
      {"--metrics-interval", campaign, &f->metrics_interval_s, "virtual seconds", {}, 1},
      {"--trim", campaign, &f->trim},
      {"--overlapped-drain", {"fuzz"}, &f->overlapped_drain, "", {"on", "off"}},
      {"--json", {"report"}, &f->json},
      {"--journal", {"report"}, &f->journals, "a file path"},
      {"--trace-out", {"report"}, &f->trace_out, "a file path"},
      {"--port", {"serve"}, &f->port, "a port", {}, 0, 65535},
      {"--shards", {"serve"}, &f->shards, "an integer", {}, 1, 1024},
      {"--pool", {"serve"}, &f->pool, "an integer", {}, 1, 4096},
      {"--priority", {"serve"}, &f->priority, "an integer", {}, 1, 1000},
      {"--campaign-id", {"serve"}, &f->campaign_id, "a non-empty id"},
      // Up to an hour between heartbeats and a day of lease; main also requires
      // the lease to exceed the heartbeat, before any socket opens.
      {"--heartbeat-interval", {"serve"}, &f->heartbeat_ms, "milliseconds", {}, 1,
       3600000},
      {"--lease-timeout", {"serve"}, &f->lease_ms, "milliseconds", {}, 1, 86400000},
      {"--status-port", {"serve"}, &f->status_port, "a port", {}, 0, 65535},
      {"--journal-rotate-mb", {"serve"}, &f->rotate_mb, "megabytes", {}, 1, 10240},
      {"--connect", {"worker", "top"}, &f->connect, "HOST:PORT"},
      {"--boards", {"worker"}, &f->boards, "an integer", {}, 1, 1024},
      {"--name", {"worker"}, &f->worker_name, "a non-empty worker name"},
      {"--campaign", {"top"}, &f->top_campaign, "a non-empty campaign id"},
      {"--interval", {"top"}, &f->interval_s, "seconds", {}, 1, 3600},
      {"--once", {"top"}, &f->once},
  };
}

// Stores `value` in the flag's target; false (after printing why) when the
// value is not one the flag takes.
bool ApplyFlagValue(const FlagSpec& flag, const std::string& value) {
  uint64_t number = 0;
  bool ok = !value.empty();
  std::string wants = flag.wants;
  if (std::holds_alternative<uint64_t*>(flag.target)) {
    ok = ParseUint(value, &number) && number >= flag.lo && number <= flag.hi;
    wants += flag.hi == UINT64_MAX
                 ? StrFormat(" >= %llu", static_cast<unsigned long long>(flag.lo))
                 : StrFormat(" in [%llu, %llu]", static_cast<unsigned long long>(flag.lo),
                             static_cast<unsigned long long>(flag.hi));
  } else if (!flag.choices.empty()) {
    ok = std::find(flag.choices.begin(), flag.choices.end(), value) != flag.choices.end();
    wants = "one of " + StrJoin(flag.choices, ", ");
  }
  if (!ok) {
    fprintf(stderr, "eof: %s wants %s, got '%s'\n", flag.name, wants.c_str(),
            value.c_str());
    return false;
  }
  if (uint64_t* const* target = std::get_if<uint64_t*>(&flag.target)) {
    **target = number;
  } else if (std::string* const* text = std::get_if<std::string*>(&flag.target)) {
    **text = value;
  } else {
    std::get<std::vector<std::string>*>(flag.target)->push_back(value);
  }
  return true;
}

// Applies the flag table to argv: every `--flag value` or `--flag=value` the
// command takes is consumed wherever it appears, and the positional arguments
// close up behind argv[1] so they keep their slots. Parsing is strict: a flag
// the command does not take, a switch given a value, or a missing or invalid
// value is a usage error — never a silent default. Returns false after
// printing the error.
bool ParseFlags(const std::string& command, Flags* flags, int* argc, char** argv) {
  std::vector<FlagSpec> table = FlagTable(flags);
  auto takes = [&command](const FlagSpec& flag) {
    return std::find(flag.commands.begin(), flag.commands.end(), command) !=
           flag.commands.end();
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      argv[out++] = argv[i];
      continue;
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    auto flag = std::find_if(table.begin(), table.end(), [&](const FlagSpec& candidate) {
      return candidate.name == name && takes(candidate);
    });
    if (flag == table.end()) {
      std::vector<std::string> valid;
      for (const FlagSpec& candidate : table) {
        if (takes(candidate)) {
          valid.push_back(candidate.name);
        }
      }
      fprintf(stderr, "eof: unknown flag '%s' for '%s' (valid flags: %s)\n",
              name.c_str(), command.c_str(),
              valid.empty() ? "none" : StrJoin(valid, ", ").c_str());
      return false;
    }
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      if (eq != std::string::npos) {
        fprintf(stderr, "eof: %s is a switch and takes no value\n", name.c_str());
        return false;
      }
      **on = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < *argc) {
      value = argv[++i];
    }
    if (!ApplyFlagValue(*flag, value)) {
      return false;
    }
  }
  *argc = out;
  return true;
}

// Reads the optional [minutes] [seed] positionals of fuzz/serve: strict
// decimal integers; 0 minutes (or none) means 60.
bool ParseMinutesSeed(int argc, char** argv, uint64_t* minutes, uint64_t* seed) {
  *minutes = 60;
  *seed = 1;
  if ((argc >= 4 && !ParseUint(argv[3], minutes)) ||
      (argc >= 5 && !ParseUint(argv[4], seed))) {
    fprintf(stderr, "eof: minutes and seed must be decimal integers\n");
    return false;
  }
  if (*minutes == 0) {
    *minutes = 60;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }
  if (argc < 2 || strncmp(argv[1], "--", 2) == 0) {
    return Usage();
  }
  std::string command = argv[1];
  Flags flags;
  if (!ParseFlags(command, &flags, &argc, argv)) {
    return Usage();
  }
  if (command == "serve" && flags.lease_ms <= flags.heartbeat_ms) {
    fprintf(stderr,
            "eof: --lease-timeout (%llu ms) must exceed --heartbeat-interval "
            "(%llu ms)\n",
            static_cast<unsigned long long>(flags.lease_ms),
            static_cast<unsigned long long>(flags.heartbeat_ms));
    return Usage();
  }
  if (command == "serve" && flags.rotate_mb > 0 && flags.metrics_out.empty()) {
    fprintf(stderr,
            "eof: --journal-rotate-mb needs --metrics-out (no journal to "
            "rotate)\n");
    return Usage();
  }
  if (command == "list-targets") {
    return ListTargets();
  }
  if (command == "mine-specs" && argc >= 3) {
    return MineSpecs(argv[2]);
  }
  if ((command == "fuzz" || command == "serve") && argc >= 3) {
    uint64_t minutes = 0;
    uint64_t seed = 0;
    if (!ParseMinutesSeed(argc, argv, &minutes, &seed)) {
      return Usage();
    }
    std::string board = argc >= 6 ? argv[5] : "";
    return command == "fuzz" ? Fuzz(argv[2], minutes, seed, board, flags)
                             : Serve(argv[2], minutes, seed, board, flags);
  }
  if (command == "report" && (argc >= 3 || !flags.journals.empty())) {
    for (int i = 2; i < argc; ++i) {
      if (!ExpandJournalArg(argv[i], &flags.journals)) {
        return 1;
      }
    }
    return Report(flags.journals, flags.json, flags.trace_out);
  }
  if (command == "worker" || command == "top") {
    if (flags.connect.empty()) {
      fprintf(stderr, "eof: %s needs --connect HOST:PORT\n", command.c_str());
      return Usage();
    }
    return command == "worker" ? Worker(flags) : Top(flags);
  }
  if (command == "repro" && argc >= 4) {
    return Repro(argv[2], atoi(argv[3]));
  }
  if (command == "replay" && argc >= 4) {
    return Replay(argv[2], argv[3]);
  }
  if (command == "trim" && argc >= 4) {
    return Trim(argv[2], argv[3], argc >= 5 ? argv[4] : "");
  }
  if (command == "bugs") {
    return Bugs();
  }
  return Usage();
}
