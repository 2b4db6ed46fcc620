// Thread management (thread.c): create/startup/delay/suspend/resume/delete.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/thread");

constexpr uint32_t RT_THREAD_PRIORITY_MAX = 32;

int64_t ThreadCreate(KernelContext& ctx, RtThreadState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t stack_size = static_cast<uint32_t>(args[1].scalar);
  uint32_t priority = static_cast<uint32_t>(args[2].scalar);
  uint32_t tick = static_cast<uint32_t>(args[3].scalar);
  if (stack_size < 256) {
    EOF_COV(ctx);
    return 0;
  }
  if (priority >= RT_THREAD_PRIORITY_MAX) {
    EOF_COV(ctx);
    return 0;  // rt_thread_create rejects out-of-range priorities
  }
  if (tick == 0) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(stack_size + 160).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  RtObject object;
  object.name = args[0].AsString().substr(0, 8);
  object.type = ObjectClass::kThread;
  Thread thread;
  thread.object = state.objects.Insert(std::move(object));
  thread.priority = priority;
  thread.stack_size = stack_size;
  thread.tick_slice = tick;
  EOF_COV_BUCKET(ctx, state.threads.live());
  EOF_COV_BUCKET(ctx, priority / 3 + 12);
  int64_t handle = state.threads.Insert(std::move(thread));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(stack_size + 160);
  }
  return handle;
}

int64_t ThreadStartup(KernelContext& ctx, RtThreadState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Thread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (thread->started) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  EOF_COV(ctx);
  thread->started = true;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return RT_EOK;
}

int64_t ThreadDelay(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t ticks = args[0].scalar;
  if (ticks > 500) {
    EOF_COV(ctx);
    ticks = 500;
  }
  state.tick += ticks;
  ctx.ConsumeCycles(ticks * kTickCycles / 10);
  return RT_EOK;
}

int64_t ThreadSuspend(KernelContext& ctx, RtThreadState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Thread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr || !thread->started) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (thread->suspended) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  EOF_COV(ctx);
  thread->suspended = true;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return RT_EOK;
}

int64_t ThreadResume(KernelContext& ctx, RtThreadState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Thread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr || !thread->suspended) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  thread->suspended = false;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return RT_EOK;
}

int64_t ThreadDelete(KernelContext& ctx, RtThreadState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  Thread* thread = state.threads.Find(handle);
  if (thread == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(thread->stack_size + 160);
  state.objects.Remove(thread->object);
  state.threads.Remove(handle);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return RT_EOK;
}

}  // namespace

Status RegisterThreadApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_thread_create";
    spec.subsystem = "thread";
    spec.doc = "create a thread (name, stack bytes, priority, tick slice)";
    spec.args = {ArgSpec::String("name", {"thr0", "thr1"}),
                 ArgSpec::Scalar("stack_size", 32, 0, 8192),
                 ArgSpec::Scalar("priority", 8, 0, 40), ArgSpec::Scalar("tick", 8, 0, 100)};
    spec.produces = "rt_thread";
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_thread_startup";
    spec.subsystem = "thread";
    spec.doc = "start a created thread";
    spec.args = {ArgSpec::Resource("thread", "rt_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadStartup));
  }
  {
    ApiSpec spec;
    spec.name = "rt_thread_delay";
    spec.subsystem = "thread";
    spec.doc = "sleep the calling thread for N ticks";
    spec.args = {ArgSpec::Scalar("ticks", 32, 0, 1000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadDelay));
  }
  {
    ApiSpec spec;
    spec.name = "rt_thread_suspend";
    spec.subsystem = "thread";
    spec.doc = "suspend a started thread";
    spec.args = {ArgSpec::Resource("thread", "rt_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadSuspend));
  }
  {
    ApiSpec spec;
    spec.name = "rt_thread_resume";
    spec.subsystem = "thread";
    spec.doc = "resume a suspended thread";
    spec.args = {ArgSpec::Resource("thread", "rt_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadResume));
  }
  {
    ApiSpec spec;
    spec.name = "rt_thread_delete";
    spec.subsystem = "thread";
    spec.doc = "destroy a thread";
    spec.args = {ArgSpec::Resource("thread", "rt_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadDelete));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
