// POSIX semaphores.
//
// ── Bug #17 (Table 2): NuttX / Semaphore / Kernel Assertion / nxsem_trywait() ──
// A failed nxsem_trywait() registers cancellation-point bookkeeping (stamped from the
// hardware timer). Subsequent sem_posts that pump the count past four leave the
// bookkeeping inconsistent with the count, and the next nxsem_trywait() trips
// DEBUGASSERT(sem->count <= waiters_expected) — assertion text on the console, core
// parked: the log monitor's bug. Requires failed-trywait → ≥5 posts → trywait, a sequence
// with per-stage coverage edges.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/semaphore");

int64_t SemInit(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t value = args[0].scalar;
  if (value > static_cast<uint64_t>(kSemValueMax)) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  PosixSem sem;
  sem.value = static_cast<int32_t>(value);
  int64_t handle = state.semaphores.Insert(std::move(sem));
  if (handle == 0) {
    EOF_COV(ctx);
    return ENOMEM_;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t SemPost(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixSem* sem = state.semaphores.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (sem->value == kSemValueMax) {
    EOF_COV(ctx);
    return EOVERFLOW_;
  }
  ++sem->value;
  ++sem->post_count;
  EOF_COV_BUCKET(ctx, CovSizeClass(static_cast<uint64_t>(sem->value)));
  // Post-count staircase (only meaningful once a trywait failed and armed bookkeeping).
  if (sem->trywait_failed) {
    EOF_COV(ctx);
    if (sem->post_count == 2) {
      EOF_COV(ctx);
    }
    if (sem->post_count == 4) {
      EOF_COV(ctx);
    }
    if (sem->post_count >= 5) {
      EOF_COV(ctx);
    }
  }
  return OK_;
}

int64_t SemWait(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixSem* sem = state.semaphores.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (sem->value <= 0) {
    EOF_COV(ctx);
    return EAGAIN_;  // zero-wait in agent context
  }
  EOF_COV(ctx);
  --sem->value;
  return OK_;
}

int64_t NxsemTrywait(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixSem* sem = state.semaphores.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (sem->value <= 0) {
    // Failed trywait: cancellation-point bookkeeping is stamped off the hardware timer.
    if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
      EOF_COV(ctx);
      sem->trywait_failed = true;
      sem->post_count = 0;
    } else {
      EOF_COV(ctx);
    }
    return EAGAIN_;
  }
  if (sem->trywait_failed && sem->post_count >= 5) {
    EOF_COV(ctx);
    // BUG #17: count vs. cancellation bookkeeping inconsistency.
    ctx.AssertFail(StrFormat(
        "DEBUGASSERT failed at sem_trywait.c:112: sem->count(%d) corrupt vs waiters",
        sem->value));
  }
  EOF_COV(ctx);
  --sem->value;
  return OK_;
}

int64_t SemDestroy(KernelContext& ctx, NuttxState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.semaphores.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  state.semaphores.Remove(handle);
  return OK_;
}

}  // namespace

Status RegisterSemApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "sem_init";
    spec.subsystem = "semaphore";
    spec.doc = "initialise an unnamed semaphore";
    spec.args = {ArgSpec::Scalar("value", 32, 0, 16)};
    spec.produces = "nx_sem";
    RETURN_IF_ERROR(table.Register(std::move(spec), SemInit));
  }
  {
    ApiSpec spec;
    spec.name = "sem_post";
    spec.subsystem = "semaphore";
    spec.doc = "post a semaphore";
    spec.args = {ArgSpec::Resource("sem", "nx_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemPost));
  }
  {
    ApiSpec spec;
    spec.name = "sem_wait";
    spec.subsystem = "semaphore";
    spec.doc = "wait on a semaphore (zero wait)";
    spec.args = {ArgSpec::Resource("sem", "nx_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemWait));
  }
  {
    ApiSpec spec;
    spec.name = "nxsem_trywait";
    spec.subsystem = "semaphore";
    spec.doc = "non-blocking wait";
    spec.args = {ArgSpec::Resource("sem", "nx_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), NxsemTrywait));
  }
  {
    ApiSpec spec;
    spec.name = "sem_destroy";
    spec.subsystem = "semaphore";
    spec.doc = "destroy a semaphore";
    spec.args = {ArgSpec::Resource("sem", "nx_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemDestroy));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
