// Board-farm scaling bench: one FreeRTOS campaign fanned out over 1/2/4 simulated
// boards. Since every board burns the same virtual budget concurrently — exactly as
// racked physical boards would — campaign throughput (execs per virtual campaign
// hour) must rise monotonically with the worker count; host-side wall throughput is
// reported alongside to expose the engine's own parallel efficiency.
//
// Also checks determinism: a second one-board campaign of the same config
// (EofFuzzer::Run, the same loop) must bit-match the --jobs 1 series.
//
// With --metrics-out=PATH, each worker-count run streams its telemetry journal to
// PATH with ".jobsN" spliced in before the extension (farm.jsonl -> farm.jobs2.jsonl),
// so CI archives one JSONL per point of the scaling curve.
//
// --fleet switches to the process-sharded mode: an in-process orchestrator
// serves 1/2/4/8 `--fleet-worker` subprocesses (self-exec'd copies of this
// binary) over TCP localhost, 8 boards per worker — 64 boards at the top end.
// Campaign throughput is execs per virtual hour of the campaign window, so the
// curve measures the fleet plumbing (lease grants, sync merges, wire codecs),
// not the host's core count. The run writes BENCH_fleet_scaling.json and exits
// non-zero when parallel efficiency at 8 workers drops below 0.85.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/core/board_farm.h"
#include "src/core/campaign.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/transport.h"
#include "src/fleet/worker.h"
#include "src/os/all_oses.h"

using namespace eof;

namespace {

// farm.jsonl + 2 -> farm.jobs2.jsonl (no extension: appended).
std::string MetricsPathForJobs(const std::string& base, int jobs) {
  std::string suffix = ".jobs" + std::to_string(jobs);
  size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

bool SeriesMatch(const CampaignResult& a, const CampaignResult& b) {
  if (a.series.size() != b.series.size() || a.final_coverage != b.final_coverage ||
      a.execs != b.execs) {
    return false;
  }
  for (size_t i = 0; i < a.series.size(); ++i) {
    if (a.series[i].time != b.series[i].time ||
        a.series[i].coverage != b.series[i].coverage) {
      return false;
    }
  }
  return true;
}

constexpr int kBoardsPerWorker = 8;
constexpr double kEfficiencyGate = 0.85;

// The per-board budget for the fleet sweep. A notch below the in-process
// section's: the top point runs 64 concurrent board sessions, and the sweep
// cares about merge/lease overhead, not campaign length.
VirtualDuration FleetBudget() { return ScaledCampaignBudget() / 8; }

FuzzerConfig FleetConfig() {
  FuzzerConfig config;
  config.os_name = "freertos";
  config.seed = 1;
  config.budget = FleetBudget();
  config.sample_points = 24;
  return config;
}

// Subprocess entry: `bench_farm_scaling --fleet-worker PORT` connects to the
// in-process orchestrator on localhost and serves lease batches until the
// campaign drains. Exec'd from RunFleetPoint, never invoked by hand.
int RunFleetWorkerChild(const char* port_arg, const char* name_arg) {
  unsigned long port = strtoul(port_arg, nullptr, 10);
  if (port == 0 || port > 65535) {
    fprintf(stderr, "--fleet-worker: bad port '%s'\n", port_arg);
    return 1;
  }
  auto transport = fleet::ConnectTcp("127.0.0.1", static_cast<uint16_t>(port));
  if (!transport.ok()) {
    fprintf(stderr, "%s: connect failed: %s\n", name_arg,
            transport.status().ToString().c_str());
    return 1;
  }
  fleet::FleetWorker::Options options;
  options.name = name_arg;
  options.capacity = kBoardsPerWorker;
  auto worker = fleet::FleetWorker::Create(std::move(options));
  if (!worker.ok()) {
    fprintf(stderr, "%s: create failed: %s\n", name_arg,
            worker.status().ToString().c_str());
    return 1;
  }
  Status ran = worker.value()->Run(transport.value().get());
  if (!ran.ok()) {
    fprintf(stderr, "%s: run failed: %s\n", name_arg, ran.ToString().c_str());
    return 1;
  }
  return 0;
}

struct FleetPoint {
  int workers = 0;
  int boards = 0;
  uint64_t execs = 0;
  uint64_t coverage = 0;
  uint64_t rate = 0;  // execs per virtual hour of the campaign window
  double wall_sec = 0.0;
  double efficiency = 1.0;
};

// One sweep point: an orchestrator serving `workers` self-exec'd subprocess
// workers over TCP localhost, 8 boards each (shard count = total boards).
bool RunFleetPoint(const char* self, int workers, FleetPoint* point) {
  point->workers = workers;
  point->boards = workers * kBoardsPerWorker;

  fleet::Orchestrator::Options options;
  options.board_pool = point->boards;
  auto orchestrator = fleet::Orchestrator::Create(std::move(options));
  if (!orchestrator.ok()) {
    fprintf(stderr, "fleet(%d): orchestrator: %s\n", workers,
            orchestrator.status().ToString().c_str());
    return false;
  }
  fleet::FleetCampaignSpec spec;
  spec.campaign_id = "fleet-scale";
  spec.config = FleetConfig();
  spec.shards = point->boards;
  Status added = orchestrator.value()->AddCampaign(spec);
  if (!added.ok()) {
    fprintf(stderr, "fleet(%d): add campaign: %s\n", workers, added.ToString().c_str());
    return false;
  }

  uint16_t port = 0;
  auto listener = fleet::ListenTcp(0, &port);
  if (!listener.ok()) {
    fprintf(stderr, "fleet(%d): listen: %s\n", workers,
            listener.status().ToString().c_str());
    return false;
  }

  std::string port_str = std::to_string(port);
  std::vector<pid_t> children;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < workers; ++i) {
    std::string name = "bench-w" + std::to_string(i);
    pid_t pid = fork();
    if (pid < 0) {
      fprintf(stderr, "fleet(%d): fork: %s\n", workers, strerror(errno));
      return false;
    }
    if (pid == 0) {
      execl(self, self, "--fleet-worker", port_str.c_str(), name.c_str(),
            static_cast<char*>(nullptr));
      fprintf(stderr, "execl(%s): %s\n", self, strerror(errno));
      _exit(127);
    }
    children.push_back(pid);
  }

  Status served = orchestrator.value()->Serve(listener.value().get());
  bool ok = served.ok();
  if (!ok) {
    fprintf(stderr, "fleet(%d): serve: %s\n", workers, served.ToString().c_str());
  }
  for (pid_t pid : children) {
    int wstatus = 0;
    if (waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != 0) {
      fprintf(stderr, "fleet(%d): worker pid %d failed (status %d)\n", workers,
              static_cast<int>(pid), wstatus);
      ok = false;
    }
  }
  point->wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!ok) {
    return false;
  }

  auto results = orchestrator.value()->Results();
  uint64_t reclaims =
      results.empty() ? 0 : results[0].metrics.CounterValue("fleet.leases_reclaimed");
  if (results.size() != 1 || reclaims != 0) {
    fprintf(stderr, "fleet(%d): unexpected results (campaigns=%zu reclaims=%llu)\n",
            workers, results.size(), static_cast<unsigned long long>(reclaims));
    return false;
  }
  const CampaignResult& campaign = results[0].result;
  point->execs = campaign.execs;
  point->coverage = campaign.final_coverage;
  uint64_t window = campaign.elapsed > 0 ? campaign.elapsed : 1;
  point->rate = campaign.execs * kVirtualHour / window;
  return true;
}

// The process-sharded sweep: 1/2/4/8 workers, 8..64 boards, efficiency against
// the 1-worker point. Writes BENCH_fleet_scaling.json; fails the run when
// efficiency at 8 workers lands under the gate.
int RunFleetScaling(const char* self) {
  printf("== Fleet scaling: FreeRTOS, %llu virtual minutes per board, %d boards/worker ==\n",
         static_cast<unsigned long long>(FleetBudget() / kVirtualMinute),
         kBoardsPerWorker);
  printf("%-8s %8s %12s %16s %14s %12s %11s\n", "workers", "boards", "execs",
         "execs/v-hour", "wall-sec", "coverage", "efficiency");

  std::vector<FleetPoint> points;
  for (int workers : {1, 2, 4, 8}) {
    FleetPoint point;
    if (!RunFleetPoint(self, workers, &point)) {
      return 1;
    }
    if (!points.empty()) {
      point.efficiency = static_cast<double>(point.rate) /
                         (static_cast<double>(workers) *
                          static_cast<double>(points.front().rate));
    }
    printf("%-8d %8d %12llu %16llu %14.2f %12llu %11.4f\n", point.workers,
           point.boards, static_cast<unsigned long long>(point.execs),
           static_cast<unsigned long long>(point.rate), point.wall_sec,
           static_cast<unsigned long long>(point.coverage), point.efficiency);
    points.push_back(point);
  }

  double efficiency_at_8 = points.back().efficiency;
  bool pass = efficiency_at_8 >= kEfficiencyGate;
  FILE* json = fopen("BENCH_fleet_scaling.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n");
    fprintf(json, "  \"os\": \"freertos\",\n");
    fprintf(json, "  \"boards_per_worker\": %d,\n", kBoardsPerWorker);
    fprintf(json, "  \"budget_virtual_minutes\": %llu,\n",
            static_cast<unsigned long long>(FleetBudget() / kVirtualMinute));
    for (const FleetPoint& point : points) {
      fprintf(json,
              "  \"workers%d\": {\"workers\": %d, \"boards\": %d, \"execs\": %llu, "
              "\"execs_per_vhour\": %llu, \"coverage\": %llu, \"wall_sec\": %.3f, "
              "\"efficiency\": %.4f},\n",
              point.workers, point.workers, point.boards,
              static_cast<unsigned long long>(point.execs),
              static_cast<unsigned long long>(point.rate),
              static_cast<unsigned long long>(point.coverage), point.wall_sec,
              point.efficiency);
    }
    fprintf(json, "  \"efficiency_at_8\": %.4f,\n", efficiency_at_8);
    fprintf(json, "  \"efficiency_gate\": %.2f,\n", kEfficiencyGate);
    fprintf(json, "  \"pass\": %s\n", pass ? "true" : "false");
    fprintf(json, "}\n");
    fclose(json);
    printf("wrote BENCH_fleet_scaling.json\n");
  }
  printf("parallel efficiency at 8 workers (64 boards): %.4f (gate %.2f): %s\n",
         efficiency_at_8, kEfficiencyGate, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (!RegisterAllOses().ok()) {
    fprintf(stderr, "OS registration failed\n");
    return 1;
  }
  SetMinLogSeverity(LogSeverity::kError);

  if (argc >= 3 && std::string(argv[1]) == "--fleet-worker") {
    return RunFleetWorkerChild(argv[2], argc >= 4 ? argv[3] : "bench-w");
  }

  std::string metrics_out;
  bool fleet = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--fleet") {
      fleet = true;
    }
  }
  if (fleet) {
    return RunFleetScaling(argv[0]);
  }

  FuzzerConfig config;
  config.os_name = "freertos";  // default evaluation board
  config.seed = 1;
  config.budget = ScaledCampaignBudget() / 4;
  config.sample_points = 24;

  printf("== Board-farm scaling: FreeRTOS, %llu virtual minutes per board ==\n",
         static_cast<unsigned long long>(config.budget / kVirtualMinute));
  printf("%-8s %12s %16s %14s %12s\n", "workers", "execs", "execs/v-hour", "wall-sec",
         "coverage");

  uint64_t previous_rate = 0;
  bool monotone = true;
  CampaignResult farm_one;
  for (int jobs : {1, 2, 4}) {
    config.metrics_out =
        metrics_out.empty() ? "" : MetricsPathForJobs(metrics_out, jobs);
    BoardFarm farm(config, jobs);
    auto start = std::chrono::steady_clock::now();
    auto result = farm.Run();
    auto wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
    if (!result.ok()) {
      fprintf(stderr, "farm(%d) failed: %s\n", jobs, result.status().ToString().c_str());
      return 1;
    }
    const CampaignResult& campaign = result.value();
    if (jobs == 1) {
      farm_one = campaign;
    }
    // Campaign throughput: payloads executed per virtual hour of the (parallel)
    // campaign window. This is the metric a physical board farm buys.
    uint64_t window = campaign.elapsed > 0 ? campaign.elapsed : 1;
    uint64_t rate = campaign.execs * kVirtualHour / window;
    printf("%-8d %12llu %16llu %14.2f %12llu\n", jobs,
           static_cast<unsigned long long>(campaign.execs),
           static_cast<unsigned long long>(rate), wall.count(),
           static_cast<unsigned long long>(campaign.final_coverage));
    if (rate < previous_rate) {
      monotone = false;
    }
    previous_rate = rate;
  }
  printf("scaling 1 -> 4 workers: %s\n", monotone ? "monotone" : "NOT MONOTONE");

  config.metrics_out.clear();  // the rerun needs no journal
  auto rerun = EofFuzzer(config).Run();
  if (!rerun.ok()) {
    fprintf(stderr, "one-board rerun failed: %s\n", rerun.status().ToString().c_str());
    return 1;
  }
  bool match = SeriesMatch(rerun.value(), farm_one);
  printf("determinism (--jobs 1 run twice): %s\n",
         match ? "bit-identical series" : "MISMATCH");
  return (monotone && match) ? 0 : 1;
}
