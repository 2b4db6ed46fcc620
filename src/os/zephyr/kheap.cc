// k_heap: the kernel-object heap wrapper over sys_heap.
//
// ── Bug #4 (Table 2, confirmed): Zephyr / KHeap / Kernel Panic / k_heap_init() ──
// k_heap_init() carves the sys_heap bookkeeping out of the caller-supplied region. For
// region sizes between 1 and 7 bytes the carve-out subtraction wraps, and the first-chunk
// header is written far outside the region — immediate kernel panic.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/kheap");

int64_t KHeapInit(KernelContext& ctx, ZephyrState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[0].scalar;
  if (size == 0) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (size < 8) {
    EOF_COV(ctx);
    // BUG #4: bookkeeping carve-out wraps for 1..7-byte regions.
    ctx.Panic(StrFormat("FATAL: k_heap_init: first chunk header written at -%llu",
                        static_cast<unsigned long long>(8 - size)),
              "Stack frames at BUG:\n"
              " Level 1: k_heap.c : k_heap_init : 37\n"
              " Level 2: agent : execute_one");
  }
  if (size > 16384) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (!ctx.ReserveRam(size).ok()) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  KHeap heap;
  heap.total = size;
  int64_t handle = state.kheaps.Insert(std::move(heap));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(size);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t KHeapAlloc(KernelContext& ctx, ZephyrState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  KHeap* heap = state.kheaps.Find(static_cast<int64_t>(args[0].scalar));
  if (heap == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t size = (args[1].scalar + 7) & ~7ULL;
  if (size == 0 || heap->used + size > heap->total) {
    EOF_COV(ctx);
    return 0;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, heap->alloc_count);  // allocation-count row
  if (ctx.HasPeripheral(Peripheral::kTrng)) {
    EOF_COV_BUCKET(ctx, CovSizeClass(size) + 10);  // canary rows, TRNG-seeded
  }
  heap->used += size;
  ++heap->alloc_count;
  ctx.ConsumeCycles(kAllocOpCycles);
  return static_cast<int64_t>(size);
}

int64_t KHeapFree(KernelContext& ctx, ZephyrState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  KHeap* heap = state.kheaps.Find(static_cast<int64_t>(args[0].scalar));
  if (heap == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  uint64_t size = args[1].scalar & ~7ULL;
  if (size > heap->used) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  heap->used -= size;
  return Z_OK;
}

}  // namespace

Status RegisterKHeapApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "k_heap_init";
    spec.subsystem = "kheap";
    spec.doc = "initialise a kernel heap over a memory region";
    spec.args = {ArgSpec::Scalar("size", 32, 0, 32768)};
    spec.produces = "k_heap";
    RETURN_IF_ERROR(table.Register(std::move(spec), KHeapInit));
  }
  {
    ApiSpec spec;
    spec.name = "k_heap_alloc";
    spec.subsystem = "kheap";
    spec.doc = "allocate from a kernel heap";
    spec.args = {ArgSpec::Resource("heap", "k_heap"), ArgSpec::Scalar("size", 32, 0, 4096)};
    RETURN_IF_ERROR(table.Register(std::move(spec), KHeapAlloc));
  }
  {
    ApiSpec spec;
    spec.name = "k_heap_free";
    spec.subsystem = "kheap";
    spec.doc = "return bytes to a kernel heap";
    spec.args = {ArgSpec::Resource("heap", "k_heap"), ArgSpec::Scalar("size", 32, 0, 4096)};
    RETURN_IF_ERROR(table.Register(std::move(spec), KHeapFree));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
