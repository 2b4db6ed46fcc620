// Fixed-block memory pools (mempool.c).
//
// ── Bug #7 (Table 2): RT-Thread / Memory / Kernel Panic / rt_mp_alloc() ──
// Allocating from an exhausted pool with a blocking timeout parks the caller on the pool's
// suspend list; the list head is carved from the pool's own control block and the last
// block allocation overwrites its prev pointer. The next blocking rt_mp_alloc on the fully
// drained pool follows the clobbered pointer — kernel panic. Reaching it requires draining
// the pool (a block_count-deep allocation chain with progress edges at fill thresholds)
// and then a blocking alloc; the suspend machinery needs the hardware timer.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/mempool");

int64_t MpCreate(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t block_count = static_cast<uint32_t>(args[1].scalar);
  uint32_t block_size = static_cast<uint32_t>(args[2].scalar);
  if (block_count == 0 || block_size == 0) {
    EOF_COV(ctx);
    return 0;
  }
  if (block_count > 64 || block_size > 1024) {
    EOF_COV(ctx);
    return 0;  // pool would not fit kernel RAM
  }
  uint64_t footprint = static_cast<uint64_t>(block_count) * (block_size + 4) + 64;
  if (!ctx.ReserveRam(footprint).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  RtObject object;
  object.name = args[0].AsString().substr(0, 8);
  object.type = ObjectClass::kMemPool;
  MemPool pool;
  pool.object = state.objects.Insert(std::move(object));
  pool.block_count = block_count;
  pool.block_size = block_size;
  int64_t handle = state.mempools.Insert(std::move(pool));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(footprint);
  }
  return handle;
}

int64_t MpAlloc(KernelContext& ctx, RtThreadState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  MemPool* pool = state.mempools.Find(static_cast<int64_t>(args[0].scalar));
  if (pool == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t timeout = args[1].scalar;  // 0 = no wait, else ticks (UINT32_MAX = forever)
  if (pool->used < pool->block_count) {
    ++pool->used;
    ctx.ConsumeCycles(kAllocOpCycles);
    // Fill-level staircase: distinct edges as the pool drains.
    EOF_COV_BUCKET(ctx, pool->used);  // absolute drain depth
    if (pool->used * 2 >= pool->block_count) {
      EOF_COV(ctx);  // half drained
    }
    if (pool->used + 1 == pool->block_count) {
      EOF_COV(ctx);  // one block left
    }
    if (pool->used == pool->block_count) {
      EOF_COV(ctx);  // last block handed out: control-block prev pointer clobbered
    }
    return static_cast<int64_t>((static_cast<uint64_t>(args[0].scalar) << 16) | pool->used);
  }
  // Pool exhausted.
  if (timeout == 0) {
    EOF_COV(ctx);
    return 0;  // RT_NULL, no wait
  }
  if (!ctx.HasPeripheral(Peripheral::kHwTimer)) {
    EOF_COV(ctx);
    return 0;  // cannot program a wakeup; degrade to no-wait
  }
  if (pool->block_count < 8) {
    EOF_COV(ctx);
    return 0;  // small pools keep the suspend head in the control block proper
  }
  EOF_COV(ctx);
  // BUG #7: the blocking path trusts the suspend-list head that the final block
  // allocation overwrote (only pools of >= 8 blocks spill it into the block area).
  ctx.Panic("BUG: kernel panic - rt_mp_alloc: suspend list head corrupt",
            "Stack frames at BUG:\n"
            " Level 1: mempool.c : rt_mp_alloc : 318\n"
            " Level 2: agent : execute_one");
}

int64_t MpFree(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  MemPool* pool = state.mempools.Find(static_cast<int64_t>(args[0].scalar >> 16));
  if (pool == nullptr || pool->used == 0) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  EOF_COV(ctx);
  --pool->used;
  ctx.ConsumeCycles(kAllocOpCycles);
  return RT_EOK;
}

int64_t MpDelete(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  MemPool* pool = state.mempools.Find(handle);
  if (pool == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  uint64_t footprint =
      static_cast<uint64_t>(pool->block_count) * (pool->block_size + 4) + 64;
  ctx.ReleaseRam(footprint);
  state.objects.Remove(pool->object);
  state.mempools.Remove(handle);
  return RT_EOK;
}

}  // namespace

Status RegisterMemPoolApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_mp_create";
    spec.subsystem = "mempool";
    spec.doc = "create a fixed-block memory pool";
    spec.args = {ArgSpec::String("name", {"mp0", "mp1"}),
                 ArgSpec::Scalar("block_count", 32, 0, 16),
                 ArgSpec::Scalar("block_size", 32, 0, 2048)};
    spec.produces = "rt_mempool";
    RETURN_IF_ERROR(table.Register(std::move(spec), MpCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mp_alloc";
    spec.subsystem = "mempool";
    spec.doc = "allocate a block (timeout 0 = no wait)";
    spec.args = {ArgSpec::Resource("pool", "rt_mempool"),
                 ArgSpec::Scalar("timeout", 32, 0, UINT32_MAX)};
    spec.produces = "rt_mp_block";
    RETURN_IF_ERROR(table.Register(std::move(spec), MpAlloc));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mp_free";
    spec.subsystem = "mempool";
    spec.doc = "return a block to its pool";
    spec.args = {ArgSpec::Resource("block", "rt_mp_block")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MpFree));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mp_delete";
    spec.subsystem = "mempool";
    spec.doc = "destroy a memory pool";
    spec.args = {ArgSpec::Resource("pool", "rt_mempool")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MpDelete));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
