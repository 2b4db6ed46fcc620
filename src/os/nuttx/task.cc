// Task control (task_create/task_delete/getpid-style surface).

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/task");

int64_t TaskCreate(KernelContext& ctx, NuttxState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t priority = static_cast<uint32_t>(args[1].scalar);
  uint32_t stack_size = static_cast<uint32_t>(args[2].scalar);
  if (priority == 0 || priority > 255) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (stack_size < 512) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (!ctx.ReserveRam(stack_size + 256).ok()) {
    EOF_COV(ctx);
    return ENOMEM_;
  }
  NxTask task;
  task.name = args[0].AsString().substr(0, 15);
  task.priority = priority;
  task.stack_size = stack_size;
  int64_t handle = state.tasks.Insert(std::move(task));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(stack_size + 256);
    return EAGAIN_;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, state.tasks.live());
  EOF_COV_BUCKET(ctx, priority / 16 + 8);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return handle;
}

int64_t TaskDelete(KernelContext& ctx, NuttxState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  NxTask* task = state.tasks.Find(handle);
  if (task == nullptr) {
    EOF_COV(ctx);
    return ENOENT_;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(task->stack_size + 256);
  state.tasks.Remove(handle);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return OK_;
}

int64_t TaskSetPriority(KernelContext& ctx, NuttxState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  NxTask* task = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (task == nullptr) {
    EOF_COV(ctx);
    return ENOENT_;
  }
  uint32_t priority = static_cast<uint32_t>(args[1].scalar);
  if (priority == 0 || priority > 255) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  task->priority = priority;
  return OK_;
}

int64_t Usleep(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t usec = args[0].scalar;
  if (usec > 100000) {
    EOF_COV(ctx);
    usec = 100000;  // capped so fuzzing keeps moving
  }
  state.boot_ticks += usec / 10000 + 1;
  ctx.ConsumeCycles(usec / 4 + 100);
  return OK_;
}

}  // namespace

Status RegisterTaskApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "task_create";
    spec.subsystem = "task";
    spec.doc = "spawn a task (name, priority, stack bytes)";
    spec.args = {ArgSpec::String("name", {"worker", "logger", "netmon"}),
                 ArgSpec::Scalar("priority", 32, 0, 300),
                 ArgSpec::Scalar("stack_size", 32, 0, 8192)};
    spec.produces = "nx_task";
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskCreate));
  }
  {
    ApiSpec spec;
    spec.name = "task_delete";
    spec.subsystem = "task";
    spec.doc = "kill a task";
    spec.args = {ArgSpec::Resource("task", "nx_task")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskDelete));
  }
  {
    ApiSpec spec;
    spec.name = "task_setpriority";
    spec.subsystem = "task";
    spec.doc = "change a task's priority";
    spec.args = {ArgSpec::Resource("task", "nx_task"),
                 ArgSpec::Scalar("priority", 32, 0, 300)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskSetPriority));
  }
  {
    ApiSpec spec;
    spec.name = "usleep";
    spec.subsystem = "task";
    spec.doc = "sleep for N microseconds";
    spec.args = {ArgSpec::Scalar("usec", 32, 0, 1000000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), Usleep));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
