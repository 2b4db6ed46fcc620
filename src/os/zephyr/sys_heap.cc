// sys_heap: Zephyr's chunk-based allocator, plus the sys_heap_stress() validation hook
// from lib/heap that applications can invoke in test builds.
//
// ── Bug #1 (Table 2): Zephyr / Heap / Kernel Panic / sys_heap_stress() ──
// The stress routine drives a random alloc/free storm seeded from the TRNG. With more
// than 100 operations and request sizes above 512 bytes the storm splits chunks below the
// minimum chunk size; the validation pass then walks a header whose size field is smaller
// than a header — kernel panic. Needs the TRNG peripheral for its seed material, so the
// path is closed on emulated machines.

#include <algorithm>

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/heap");

constexpr uint64_t kMinChunk = 16;

// First-fit allocation over the chunk list; returns chunk index or size() on failure.
size_t SysAllocChunk(KernelContext& ctx, SysHeap& heap, uint64_t want) {
  for (size_t i = 0; i < heap.chunks.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (!heap.chunks[i].used && heap.chunks[i].size >= want) {
      SysChunk& chunk = heap.chunks[i];
      if (chunk.size >= want + kMinChunk) {
        SysChunk tail{chunk.offset + want, chunk.size - want, false};
        chunk.size = want;
        heap.chunks.insert(heap.chunks.begin() + static_cast<std::ptrdiff_t>(i) + 1, tail);
      }
      heap.chunks[i].used = true;
      heap.used_bytes += heap.chunks[i].size;
      return i;
    }
  }
  return heap.chunks.size();
}

void SysFreeChunk(KernelContext& ctx, SysHeap& heap, size_t index) {
  heap.chunks[index].used = false;
  heap.used_bytes -= heap.chunks[index].size;
  // Coalesce neighbours.
  for (size_t i = 0; i + 1 < heap.chunks.size();) {
    ctx.ConsumeCycles(kListOpCycles);
    if (!heap.chunks[i].used && !heap.chunks[i + 1].used &&
        heap.chunks[i].offset + heap.chunks[i].size == heap.chunks[i + 1].offset) {
      heap.chunks[i].size += heap.chunks[i + 1].size;
      heap.chunks.erase(heap.chunks.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
}

int64_t SysHeapAlloc(KernelContext& ctx, ZephyrState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[0].scalar;
  if (size == 0) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t want = std::max<uint64_t>((size + 7) & ~7ULL, kMinChunk);
  size_t index = SysAllocChunk(ctx, state.sys_heap, want);
  if (index == state.sys_heap.chunks.size()) {
    EOF_COV(ctx);
    return 0;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(size));
  EOF_COV_BUCKET(ctx, state.sys_heap.chunks.size());  // fragmentation depth
  ctx.ConsumeCycles(kAllocOpCycles);
  int64_t handle = state.sys_allocs.Insert(state.sys_heap.chunks[index].offset);
  if (handle == 0) {
    EOF_COV(ctx);
    SysFreeChunk(ctx, state.sys_heap, index);
    return 0;
  }
  return handle;
}

int64_t SysHeapFree(KernelContext& ctx, ZephyrState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  uint64_t* offset = state.sys_allocs.Find(handle);
  if (offset == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  for (size_t i = 0; i < state.sys_heap.chunks.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (state.sys_heap.chunks[i].offset == *offset && state.sys_heap.chunks[i].used) {
      EOF_COV(ctx);
      SysFreeChunk(ctx, state.sys_heap, i);
      state.sys_allocs.Remove(handle);
      ctx.ConsumeCycles(kAllocOpCycles);
      return Z_OK;
    }
  }
  EOF_COV(ctx);
  return Z_EINVAL;
}

int64_t SysHeapRuntimeStats(KernelContext& ctx, ZephyrState& state,
                            const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.sys_heap.used_bytes);
}

int64_t SysHeapStress(KernelContext& ctx, ZephyrState& /*state*/,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t op_count = args[0].scalar;
  uint64_t max_size = args[1].scalar;
  if (op_count == 0 || max_size == 0) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (!ctx.HasPeripheral(Peripheral::kTrng)) {
    EOF_COV(ctx);
    return Z_EAGAIN;  // stress seeds its PRNG from the TRNG
  }
  op_count = std::min<uint64_t>(op_count, 512);
  max_size = std::min<uint64_t>(max_size, 2048);
  std::vector<size_t> live;
  SysHeap scratch;
  scratch.total = 4096;
  scratch.chunks = {SysChunk{0, 4096, false}};
  uint64_t splits = 0;
  for (uint64_t op = 0; op < op_count; ++op) {
    ctx.ConsumeCycles(kAllocOpCycles);
    if (ctx.rng().CoinFlip() || live.empty()) {
      uint64_t size = ctx.rng().Range(1, max_size);
      size_t index = SysAllocChunk(ctx, scratch, std::max<uint64_t>(size & ~7ULL, 8));
      if (index != scratch.chunks.size()) {
        live.push_back(index);
        if (size < kMinChunk) {
          ++splits;  // sub-minimum split: the metadata hazard accumulates
        }
      }
    } else {
      size_t pick = ctx.rng().Index(live.size());
      if (scratch.chunks.size() > live[pick] && scratch.chunks[live[pick]].used) {
        SysFreeChunk(ctx, scratch, live[pick]);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  if (op_count > 100) {
    EOF_COV(ctx);
  }
  if (op_count > 200 && max_size > 768) {
    EOF_COV(ctx);
    // BUG #1: validation pass walks a chunk whose size field undercuts its header.
    ctx.Panic("FATAL: sys_heap_stress: chunk header smaller than header size",
              "Stack frames at BUG:\n"
              " Level 1: heap-validate.c : sys_heap_stress : 471\n"
              " Level 2: agent : execute_one");
  }
  EOF_COV(ctx);
  return static_cast<int64_t>(splits);
}

}  // namespace

void SysHeapInit(ZephyrState& state, uint64_t bytes) {
  state.sys_heap.total = bytes;
  state.sys_heap.chunks = {SysChunk{0, bytes, false}};
  state.sys_heap.used_bytes = 0;
}

Status RegisterSysHeapApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "sys_heap_alloc";
    spec.subsystem = "heap";
    spec.doc = "allocate from the system heap";
    spec.args = {ArgSpec::Scalar("size", 32, 0, 8192)};
    spec.produces = "z_mem";
    RETURN_IF_ERROR(table.Register(std::move(spec), SysHeapAlloc));
  }
  {
    ApiSpec spec;
    spec.name = "sys_heap_free";
    spec.subsystem = "heap";
    spec.doc = "free a system-heap allocation";
    spec.args = {ArgSpec::Resource("mem", "z_mem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SysHeapFree));
  }
  {
    ApiSpec spec;
    spec.name = "sys_heap_runtime_stats_get";
    spec.subsystem = "heap";
    spec.doc = "bytes currently allocated";
    RETURN_IF_ERROR(table.Register(std::move(spec), SysHeapRuntimeStats));
  }
  {
    ApiSpec spec;
    spec.name = "sys_heap_stress";
    spec.subsystem = "heap";
    spec.doc = "random alloc/free storm with validation (test-build hook)";
    spec.args = {ArgSpec::Scalar("op_count", 32, 0, 256),
                 ArgSpec::Scalar("max_size", 32, 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), SysHeapStress));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
