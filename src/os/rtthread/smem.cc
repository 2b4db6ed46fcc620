// rt_smem: the small-memory allocator instances (src/mm/slab-less builds), plus the main
// kernel heap entry points rt_malloc/rt_free that ride on _heap_lock.
//
// ── Bug #11 (Table 2, confirmed): RT-Thread / Memory / Kernel Panic / rt_smem_setname() ──
// rt_smem_setname() copies the new name into the 8-byte name field of the smem header with
// an unterminated copy. When the instance has four or more live allocations the header's
// slack bytes are occupied by the smallest-block fast path cache, and a name longer than
// 7 characters overwrites its first entry — the next dereference panics inside setname's
// cache-touch epilogue.
//
// ── Bug #9 (Table 2): RT-Thread / Heap / Kernel Panic / _heap_lock() ──
// The main heap lock takes a hardware-timer-stamped ticket. rt_malloc aligns the request
// size up; for odd sizes on the out-of-memory path, the error epilogue releases the ticket
// twice and the nest count underflows — _heap_lock panics on the corrupt nest. The ticket
// stamp needs the hardware timer, so the path is closed on emulated boards.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/memory");

constexpr uint64_t kSmemMinSize = 128;
constexpr uint64_t kSmemMaxSize = 8192;

int64_t SmemInit(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[1].scalar;
  if (size < kSmemMinSize || size > kSmemMaxSize) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(size).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Smem smem;
  RtObject object;
  object.name = args[0].AsString().substr(0, 8);
  object.type = ObjectClass::kMemPool;
  smem.object = state.objects.Insert(std::move(object));
  smem.name = args[0].AsString().substr(0, 8);
  smem.total = size;
  smem.blocks = {SmemBlock{0, size, false}};
  int64_t handle = state.smems.Insert(std::move(smem));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(size);
  }
  return handle;
}

int64_t SmemAlloc(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t smem_handle = static_cast<int64_t>(args[0].scalar);
  Smem* smem = state.smems.Find(smem_handle);
  if (smem == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t size = args[1].scalar;
  if (size == 0 || size > smem->total) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t want = (size + 7) & ~7ULL;
  // Best-fit scan (smem uses a two-level scan; modelled as best-fit here).
  size_t best = smem->blocks.size();
  for (size_t i = 0; i < smem->blocks.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    const SmemBlock& block = smem->blocks[i];
    if (!block.used && block.size >= want &&
        (best == smem->blocks.size() || block.size < smem->blocks[best].size)) {
      best = i;
    }
  }
  if (best == smem->blocks.size()) {
    EOF_COV(ctx);
    return 0;
  }
  if (smem->blocks[best].size > want + 16) {
    EOF_COV(ctx);
    SmemBlock tail{smem->blocks[best].offset + want, smem->blocks[best].size - want, false};
    smem->blocks[best].size = want;
    // The insert may reallocate the vector; re-index instead of holding a reference.
    smem->blocks.insert(smem->blocks.begin() + static_cast<std::ptrdiff_t>(best) + 1, tail);
  } else {
    EOF_COV(ctx);
  }
  SmemBlock& block = smem->blocks[best];
  block.used = true;
  smem->used_bytes += block.size;
  EOF_COV_BUCKET(ctx, CovSizeClass(size));
  EOF_COV_BUCKET(ctx, smem->blocks.size() + 12);  // fragmentation class
  ctx.ConsumeCycles(kAllocOpCycles);
  // Live-allocation staircase toward the bug-#11 precondition.
  uint64_t live = 0;
  for (const SmemBlock& b : smem->blocks) {
    if (b.used) {
      ++live;
    }
  }
  if (live == 2) {
    EOF_COV(ctx);
  }
  if (live == 4) {
    EOF_COV(ctx);  // fast-path cache now lives in the header slack
  }
  int64_t handle = state.smem_allocs.Insert(
      (static_cast<uint64_t>(smem_handle) << 32) | block.offset);
  if (handle == 0) {
    EOF_COV(ctx);
    block.used = false;
    smem->used_bytes -= block.size;
    return 0;
  }
  return handle;
}

int64_t SmemFree(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  uint64_t* packed = state.smem_allocs.Find(handle);
  if (packed == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  Smem* smem = state.smems.Find(static_cast<int64_t>(*packed >> 32));
  uint64_t offset = *packed & 0xffffffff;
  state.smem_allocs.Remove(handle);
  if (smem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;  // instance detached first
  }
  for (size_t i = 0; i < smem->blocks.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (smem->blocks[i].offset == offset && smem->blocks[i].used) {
      EOF_COV(ctx);
      smem->blocks[i].used = false;
      smem->used_bytes -= smem->blocks[i].size;
      // Coalesce with the next block when free.
      if (i + 1 < smem->blocks.size() && !smem->blocks[i + 1].used) {
        EOF_COV(ctx);
        smem->blocks[i].size += smem->blocks[i + 1].size;
        smem->blocks.erase(smem->blocks.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      }
      return RT_EOK;
    }
  }
  EOF_COV(ctx);
  return RT_ERROR;
}

int64_t SmemSetname(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Smem* smem = state.smems.Find(static_cast<int64_t>(args[0].scalar));
  if (smem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  std::string name = args[1].AsString();
  uint64_t live = 0;
  for (const SmemBlock& block : smem->blocks) {
    ctx.ConsumeCycles(kListOpCycles);
    if (block.used) {
      ++live;
    }
  }
  if (name.size() > 7) {
    EOF_COV(ctx);  // unterminated copy writes all 8+ bytes of the field
    if (live >= 4) {
      EOF_COV(ctx);
      // BUG #11: the copy clobbers the fast-path cache entry sitting in the header slack;
      // the cache-touch epilogue dereferences it.
      ctx.Panic("BUG: kernel panic - rt_smem_setname: fastbin cache corrupt",
                "Stack frames at BUG:\n"
                " Level 1: slab.c : rt_smem_setname : 214\n"
                " Level 2: agent : execute_one");
    }
  }
  EOF_COV(ctx);
  smem->name = name.substr(0, 8);
  return RT_EOK;
}

int64_t SmemDetach(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  Smem* smem = state.smems.Find(handle);
  if (smem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(smem->total);
  state.objects.Remove(smem->object);
  state.smems.Remove(handle);
  return RT_EOK;
}

// --- main heap: rt_malloc / rt_free over _heap_lock ---

int64_t RtMalloc(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[0].scalar;
  if (size == 0) {
    EOF_COV(ctx);
    return 0;
  }
  // _heap_lock(): ticket lock, stamped from the hardware timer when present.
  ++state.heap_lock_nest;
  ctx.ConsumeCycles(kListOpCycles * 2);
  uint64_t want = (size + 7) & ~7ULL;
  // Pressure staircase: the lock epilogue only misbehaves on a heap fragmented by real use.
  if (state.heap_used > state.heap_total / 4) {
    EOF_COV(ctx);
  }
  if (state.heap_used > state.heap_total / 2) {
    EOF_COV(ctx);
  }
  if (state.heap_used + want > state.heap_total) {
    // Out-of-memory path.
    EOF_COV(ctx);
    if (state.heap_used > state.heap_total / 2 && (size & 1) != 0 &&
        ctx.HasPeripheral(Peripheral::kHwTimer)) {
      EOF_COV(ctx);
      // BUG #9: the odd-size OOM epilogue releases the hw-timer-stamped ticket twice.
      state.heap_lock_nest = 0;
      ctx.Panic("BUG: kernel panic - _heap_lock: lock nest underflow",
                "Stack frames at BUG:\n"
                " Level 1: kservice.c : _heap_lock : 89\n"
                " Level 2: kservice.c : rt_malloc : 156\n"
                " Level 3: agent : execute_one");
    }
    --state.heap_lock_nest;
    return 0;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(want));
  EOF_COV_BUCKET(ctx, state.heap_used * 8 / state.heap_total + 14);
  state.heap_used += want;
  --state.heap_lock_nest;
  ctx.ConsumeCycles(kAllocOpCycles);
  return static_cast<int64_t>(want);  // rt_malloc returns the pointer; we return the size
}

int64_t RtFree(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[0].scalar & ~7ULL;
  if (size == 0 || size > state.heap_used) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  state.heap_used -= size;
  return RT_EOK;
}

}  // namespace

Status RegisterSmemApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_smem_init";
    spec.subsystem = "memory";
    spec.doc = "create a small-memory allocator instance over a byte region";
    spec.args = {ArgSpec::String("name", {"sm0", "sm1"}),
                 ArgSpec::Scalar("size", 32, 0, 16384)};
    spec.produces = "rt_smem";
    RETURN_IF_ERROR(table.Register(std::move(spec), SmemInit));
  }
  {
    ApiSpec spec;
    spec.name = "rt_smem_alloc";
    spec.subsystem = "memory";
    spec.doc = "allocate from a small-memory instance";
    spec.args = {ArgSpec::Resource("smem", "rt_smem"), ArgSpec::Scalar("size", 32, 0, 4096)};
    spec.produces = "rt_smem_mem";
    RETURN_IF_ERROR(table.Register(std::move(spec), SmemAlloc));
  }
  {
    ApiSpec spec;
    spec.name = "rt_smem_free";
    spec.subsystem = "memory";
    spec.doc = "free a small-memory allocation";
    spec.args = {ArgSpec::Resource("mem", "rt_smem_mem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SmemFree));
  }
  {
    ApiSpec spec;
    spec.name = "rt_smem_setname";
    spec.subsystem = "memory";
    spec.doc = "rename a small-memory instance (LLM-mined API, absent from base specs)";
    spec.args = {ArgSpec::Resource("smem", "rt_smem"), ArgSpec::String("name")};
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SmemSetname));
  }
  {
    ApiSpec spec;
    spec.name = "rt_smem_detach";
    spec.subsystem = "memory";
    spec.doc = "destroy a small-memory instance";
    spec.args = {ArgSpec::Resource("smem", "rt_smem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SmemDetach));
  }
  return OkStatus();
}

Status RegisterHeapApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_malloc";
    spec.subsystem = "heap";
    spec.doc = "allocate from the main kernel heap";
    spec.args = {ArgSpec::Scalar("size", 32, 0, 16384)};
    RETURN_IF_ERROR(table.Register(std::move(spec), RtMalloc));
  }
  {
    ApiSpec spec;
    spec.name = "rt_free";
    spec.subsystem = "heap";
    spec.doc = "return memory to the main kernel heap";
    spec.args = {ArgSpec::Scalar("size", 32, 0, 16384)};
    RETURN_IF_ERROR(table.Register(std::move(spec), RtFree));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
