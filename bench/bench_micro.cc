// Microbenchmarks (google-benchmark) of the host-side hot paths: wire codec, program
// generation/mutation, coverage accounting, debug-port memory traffic, full target boots,
// restores (warm snapshot restore, cold reset), and the per-board fixed costs (image
// build and its kernel payload, flash checksum, deploy on a shared image, the cold-boot
// validator's replay).
// These bound the host overhead per executed payload. Every operator new in this binary
// is counted, so a benchmark can report its heap allocations per iteration.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/coverage_map.h"
#include "src/core/deployment.h"
#include "src/core/executor.h"
#include "src/core/fuzzer.h"
#include "src/core/replay.h"
#include "src/core/scheduler.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program_text.h"
#include "src/agent/wire.h"
#include "src/hw/board_snapshot.h"
#include "src/hw/image.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/spec/spec_miner.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eof {
namespace {

const spec::CompiledSpecs& Specs() {
  static const spec::CompiledSpecs* specs = [] {
    (void)RegisterAllOses();
    auto os = OsRegistry::Instance().Find("rtthread").value().factory();
    auto mined = spec::MineValidatedSpecs(os->registry());
    return new spec::CompiledSpecs(std::move(mined.value().specs));
  }();
  return *specs;
}

void BM_GenerateProgram(benchmark::State& state) {
  fuzz::Generator generator(Specs(), fuzz::GeneratorOptions{}, 1);
  for (auto _ : state) {
    fuzz::Program program = generator.Generate();
    benchmark::DoNotOptimize(program.calls.size());
  }
}
BENCHMARK(BM_GenerateProgram);

void BM_MutateProgram(benchmark::State& state) {
  fuzz::Generator generator(Specs(), fuzz::GeneratorOptions{}, 1);
  fuzz::Program seed = generator.Generate();
  for (auto _ : state) {
    fuzz::Program program = seed;
    generator.MutateInPlace(&program);
    benchmark::DoNotOptimize(program.calls.size());
  }
}
BENCHMARK(BM_MutateProgram);

// A program's host-to-agent trip with the loop's reused buffers: encode into the
// mailbox buffer, validate it as the agent does before executing it in place.
void BM_WireEncodeDecode(benchmark::State& state) {
  fuzz::Generator generator(Specs(), fuzz::GeneratorOptions{}, 1);
  fuzz::Program program = generator.Generate();
  std::vector<uint8_t> encoded;
  std::vector<uint32_t> call_offsets;
  for (auto _ : state) {
    program.Encode(Specs(), &encoded);
    AgentError error = ValidateProgram(encoded.data(), encoded.size(), &call_offsets);
    benchmark::DoNotOptimize(error);
  }
}
BENCHMARK(BM_WireEncodeDecode);

// The campaign loop's host-side program step against a warm corpus: pick a seed (or
// roll generate), mutate or splice it in the loop's program, and encode it for the
// mailbox. Reports heap allocations per iteration.
void BM_NextProgram(benchmark::State& state) {
  fuzz::Generator generator(Specs(), fuzz::GeneratorOptions{}, 5);
  std::vector<std::string> seeds;
  for (int i = 0; i < 64; ++i) {
    seeds.push_back(fuzz::SerializeProgramText(Specs(), generator.Generate()));
  }
  CampaignScheduler::Options options;
  options.os_name = "rtthread";
  CampaignScheduler scheduler(Specs(), options);
  scheduler.SeedCorpus(seeds);
  Rng rng(9);
  fuzz::Program program;
  std::vector<uint8_t> encoded;
  for (int i = 0; i < 64; ++i) {  // warm the loop's buffers
    scheduler.NextProgram(generator, rng, &program);
    (void)EncodeForMailbox(Specs(), &program, &encoded);
  }
  const uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    scheduler.NextProgram(generator, rng, &program);
    benchmark::DoNotOptimize(EncodeForMailbox(Specs(), &program, &encoded));
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NextProgram);

void BM_CoverageMerge(benchmark::State& state) {
  Rng rng(7);
  std::vector<uint64_t> batch(256);
  for (auto& id : batch) {
    id = rng.Below(1 << 14);
  }
  CoverageMap map;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.AddBatch(batch));
  }
}
BENCHMARK(BM_CoverageMerge);

void BM_DebugPortMemRead(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "freertos";
  static auto deployment = Deployment::Create(options).value().release();
  uint64_t base = deployment->board_spec().ram_base;
  for (auto _ : state) {
    auto data = deployment->port().ReadMem(base, 4096);
    benchmark::DoNotOptimize(data.ok());
  }
}
BENCHMARK(BM_DebugPortMemRead);

void BM_ExecLoop(benchmark::State& state) {
  // The full per-payload hot path: mailbox publish, breakpoint-synchronised
  // execution, coverage drain. This is the loop the telemetry fast path must not
  // slow down (<5% is the budget).
  (void)RegisterAllOses();
  static Rng* rng = new Rng(11);
  static TargetExecutor* executor = [] {
    ExecutorOptions options;
    options.deploy.os_name = "freertos";
    options.exception_symbol = "panic_handler";
    return TargetExecutor::Create(options, rng).value().release();
  }();
  static const spec::CompiledSpecs* specs = [] {
    auto os = OsRegistry::Instance().Find("freertos").value().factory();
    return new spec::CompiledSpecs(
        std::move(spec::MineValidatedSpecs(os->registry()).value().specs));
  }();
  fuzz::Generator generator(*specs, fuzz::GeneratorOptions{}, 3);
  fuzz::Program program = generator.Generate();
  std::vector<uint8_t> encoded;
  program.Encode(*specs, &encoded);
  ExecOutcome outcome;
  for (auto _ : state) {
    Status status = executor->ExecuteOne(encoded, &outcome);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_ExecLoop);

void BM_FullDeployBoot(benchmark::State& state) {
  (void)RegisterAllOses();
  for (auto _ : state) {
    DeployOptions options;
    options.os_name = "zephyr";
    auto deployment = Deployment::Create(options);
    benchmark::DoNotOptimize(deployment.ok());
  }
}
BENCHMARK(BM_FullDeployBoot);

// The two ways a campaign brings a board back after a crash, on the largest-RAM OS:
// a warm snapshot restore (flash-shadow gate, warm boot, RAM rewrite, resume
// handshake) repeated in steady state, and a cold reset through the boot ROM.
void BM_WarmRestore(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "rtthread";
  static auto deployment = Deployment::Create(options).value().release();
  static auto snapshot = new BoardSnapshot(
      BoardSnapshot::Capture(deployment->port(), deployment->image()).value());
  for (auto _ : state) {
    Status status = snapshot->Restore(deployment->port());
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_WarmRestore);

void BM_ColdReset(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "rtthread";
  static auto deployment = Deployment::Create(options).value().release();
  for (auto _ : state) {
    Status status = deployment->port().ResetTarget();
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_ColdReset);

// The fixed costs every fresh board pays on the host: building a firmware image (its
// payloads are drawn on first read, so the build draws none), and deploying a prebuilt
// image onto a new board. Drawing a payload and checksumming a flashed kernel are what
// a kernel that reads or writes flash pays, once per payload and per checksum.
void BM_BuildImage(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "rtthread";
  for (auto _ : state) {
    auto image = Deployment::BuildImageFor(options);
    benchmark::DoNotOptimize(image.ok());
  }
}
BENCHMARK(BM_BuildImage)->Unit(benchmark::kMillisecond);

// The rtthread kernel payload's first read: drawing it a word at a time and taking its
// word-wide CRC, and the boot ROM's full parse of it (which boots run only on stored
// bytes that differ from the payload).
const std::vector<uint8_t>& RtthreadKernelPayload() {
  static const std::vector<uint8_t>* payload = [] {
    (void)RegisterAllOses();
    DeployOptions options;
    options.os_name = "rtthread";
    auto image = Deployment::BuildImageFor(options).value();
    return new std::vector<uint8_t>(image->PayloadOf("kernel")->bytes());
  }();
  return *payload;
}

void BM_MakePayload(benchmark::State& state) {
  const uint64_t body_bytes = RtthreadKernelPayload().size() - 16;  // minus the header
  for (auto _ : state) {
    auto payload = FirmwareImage::MakePayload("kernel", 1, body_bytes);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * body_bytes));
}
BENCHMARK(BM_MakePayload)->Unit(benchmark::kMillisecond);

void BM_VerifyPayload(benchmark::State& state) {
  const std::vector<uint8_t>& payload = RtthreadKernelPayload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FirmwareImage::VerifyPayload(payload).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_VerifyPayload)->Unit(benchmark::kMillisecond);

void BM_FlashChecksum(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "rtthread";
  static auto deployment = Deployment::Create(options).value().release();
  const Partition* kernel = deployment->image().partition_table().Find("kernel");
  const uint64_t size = deployment->image().PayloadOf("kernel")->size();
  const uint64_t address = deployment->board_spec().flash_base + kernel->offset;
  Flash& flash = deployment->board().flash();
  const std::vector<uint8_t> first = flash.Read(kernel->offset, 1).value();
  for (auto _ : state) {
    // Rewriting the same byte moves the write count, so the checksum is recomputed
    // over unchanged bytes, as after a reflash.
    benchmark::DoNotOptimize(flash.Write(kernel->offset, first).ok());
    auto digest = deployment->port().ChecksumMem(address, size);
    benchmark::DoNotOptimize(digest.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_FlashChecksum)->Unit(benchmark::kMillisecond);

void BM_DeployOnSharedImage(benchmark::State& state) {
  (void)RegisterAllOses();
  DeployOptions options;
  options.os_name = "rtthread";
  options.image = Deployment::BuildImageFor(options).value();
  for (auto _ : state) {
    auto deployment = Deployment::Create(options);
    benchmark::DoNotOptimize(deployment.ok());
  }
}
BENCHMARK(BM_DeployOnSharedImage)->Unit(benchmark::kMillisecond);

// The snapshot-mode validator's exact path: one replay of a crashing reproducer on a
// fresh board (deploy, reflash, cold boot, one exec) with a campaign plan built once.
void BM_ColdValidatorReplay(benchmark::State& state) {
  (void)RegisterAllOses();
  FuzzerConfig config;
  config.os_name = "rtthread";
  static const CampaignPlan* plan = new CampaignPlan(PrepareCampaign(config).value());
  const DeployOptions deploy = ColdBootDeployOptions(config, *plan, config.seed);
  for (auto _ : state) {
    auto outcome = ReplayReproducer(deploy, *plan, "r0 = rt_object_get_type(0x0)\n");
    benchmark::DoNotOptimize(outcome.ok() && outcome->crashed);
  }
}
BENCHMARK(BM_ColdValidatorReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eof

BENCHMARK_MAIN();
