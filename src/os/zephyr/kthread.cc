// Threads and work queues (fully preemptive scheduling model, k_thread_create /
// k_work_submit surface).

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/thread");

int64_t ThreadCreate(KernelContext& ctx, ZephyrState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t stack_size = static_cast<uint32_t>(args[1].scalar);
  int32_t priority = static_cast<int32_t>(static_cast<int64_t>(args[2].scalar));
  if (stack_size < 512) {
    EOF_COV(ctx);
    return 0;
  }
  if (priority < -16 || priority > 15) {
    EOF_COV(ctx);
    return 0;  // CONFIG_NUM_COOP/PREEMPT_PRIORITIES window
  }
  if (!ctx.ReserveRam(stack_size + 192).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  KThread thread;
  thread.name = args[0].AsString().substr(0, 16);
  thread.stack_size = stack_size;
  thread.priority = priority;
  thread.started = true;  // k_thread_create starts unless K_FOREVER delay
  int64_t handle = state.threads.Insert(std::move(thread));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(stack_size + 192);
    return 0;
  }
  EOF_COV(ctx);
  if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
    // Runtime-stats timestamping rows: need the free-running hardware counter.
    EOF_COV_BUCKET(ctx, state.threads.live());
    EOF_COV_BUCKET(ctx, static_cast<uint64_t>(priority + 16) / 2 + 8);
  }
  ctx.ConsumeCycles(kContextSwitchCycles);
  return handle;
}

int64_t ThreadSuspend(KernelContext& ctx, ZephyrState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  KThread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  thread->suspended = true;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return Z_OK;
}

int64_t ThreadResume(KernelContext& ctx, ZephyrState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  KThread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  thread->suspended = false;
  return Z_OK;
}

int64_t ThreadAbort(KernelContext& ctx, ZephyrState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  KThread* thread = state.threads.Find(handle);
  if (thread == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(thread->stack_size + 192);
  state.threads.Remove(handle);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return Z_OK;
}

int64_t KSleep(KernelContext& ctx, ZephyrState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t ms = args[0].scalar;
  if (ms > 200) {
    EOF_COV(ctx);
    ms = 200;
  }
  state.uptime_ticks += ms;
  ctx.ConsumeCycles(ms * kTickCycles / 4);
  return Z_OK;
}

int64_t WorkSubmit(KernelContext& ctx, ZephyrState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t tag = static_cast<uint32_t>(args[0].scalar);
  WorkItem item;
  item.tag = tag;
  item.pending = true;
  int64_t handle = state.work_items.Insert(std::move(item));
  if (handle == 0) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return handle;
}

int64_t WorkCancel(KernelContext& ctx, ZephyrState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  WorkItem* item = state.work_items.Find(handle);
  if (item == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (!item->pending) {
    EOF_COV(ctx);
    return Z_EBUSY;  // already ran
  }
  EOF_COV(ctx);
  state.work_items.Remove(handle);
  return Z_OK;
}

int64_t UptimeGet(KernelContext& ctx, ZephyrState& state,
                  const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.uptime_ticks);
}

}  // namespace

Status RegisterThreadApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "k_thread_create";
    spec.subsystem = "thread";
    spec.doc = "create and start a thread (preemptive scheduler)";
    spec.args = {ArgSpec::String("name", {"worker", "rx", "tx"}),
                 ArgSpec::Scalar("stack_size", 32, 0, 8192),
                 ArgSpec::Scalar("priority", 32, 0, 31)};
    spec.produces = "z_thread";
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadCreate));
  }
  {
    ApiSpec spec;
    spec.name = "k_thread_suspend";
    spec.subsystem = "thread";
    spec.doc = "suspend a thread";
    spec.args = {ArgSpec::Resource("thread", "z_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadSuspend));
  }
  {
    ApiSpec spec;
    spec.name = "k_thread_resume";
    spec.subsystem = "thread";
    spec.doc = "resume a suspended thread";
    spec.args = {ArgSpec::Resource("thread", "z_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadResume));
  }
  {
    ApiSpec spec;
    spec.name = "k_thread_abort";
    spec.subsystem = "thread";
    spec.doc = "abort a thread";
    spec.args = {ArgSpec::Resource("thread", "z_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadAbort));
  }
  {
    ApiSpec spec;
    spec.name = "k_sleep";
    spec.subsystem = "thread";
    spec.doc = "sleep for N milliseconds";
    spec.args = {ArgSpec::Scalar("ms", 32, 0, 1000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), KSleep));
  }
  {
    ApiSpec spec;
    spec.name = "k_work_submit";
    spec.subsystem = "thread";
    spec.doc = "queue a work item on the system work queue";
    spec.args = {ArgSpec::Scalar("tag", 32, 0, UINT32_MAX)};
    spec.produces = "z_work";
    RETURN_IF_ERROR(table.Register(std::move(spec), WorkSubmit));
  }
  {
    ApiSpec spec;
    spec.name = "k_work_cancel";
    spec.subsystem = "thread";
    spec.doc = "cancel a pending work item";
    spec.args = {ArgSpec::Resource("work", "z_work")};
    RETURN_IF_ERROR(table.Register(std::move(spec), WorkCancel));
  }
  {
    ApiSpec spec;
    spec.name = "k_uptime_get";
    spec.subsystem = "thread";
    spec.doc = "milliseconds since boot";
    RETURN_IF_ERROR(table.Register(std::move(spec), UptimeGet));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
