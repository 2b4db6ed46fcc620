// Task management: creation, deletion, priorities, suspend/resume, direct-to-task
// notifications. Mirrors FreeRTOS tasks.c semantics at the API level: xTaskCreate with a
// caller-supplied stack depth, tick-driven delays, priority ceiling configMAX_PRIORITIES.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/task");

constexpr uint32_t configMAX_PRIORITIES = 25;
constexpr uint32_t configMINIMAL_STACK_SIZE = 128;  // words

// eNotifyAction values.
constexpr uint64_t eNoAction = 0;
constexpr uint64_t eSetBits = 1;
constexpr uint64_t eIncrement = 2;
constexpr uint64_t eSetValueWithOverwrite = 3;
constexpr uint64_t eSetValueWithoutOverwrite = 4;

int64_t TaskCreate(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  uint32_t stack_words = static_cast<uint32_t>(args[1].scalar);
  uint32_t priority = static_cast<uint32_t>(args[2].scalar);

  if (stack_words < configMINIMAL_STACK_SIZE) {
    EOF_COV(ctx);
    return errCOULD_NOT_ALLOCATE_REQUIRED_MEMORY;
  }
  if (priority >= configMAX_PRIORITIES) {
    EOF_COV(ctx);
    priority = configMAX_PRIORITIES - 1;  // FreeRTOS silently clamps
  }
  // Stack + TCB come from the kernel heap.
  uint64_t footprint = static_cast<uint64_t>(stack_words) * 4 + 128;
  if (!ctx.ReserveRam(footprint).ok()) {
    EOF_COV(ctx);
    return errCOULD_NOT_ALLOCATE_REQUIRED_MEMORY;
  }
  Tcb tcb;
  tcb.name = name.substr(0, 16);
  tcb.priority = priority;
  tcb.stack_words = stack_words;
  int64_t handle = state.tasks.Insert(std::move(tcb));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(footprint);
    return errCOULD_NOT_ALLOCATE_REQUIRED_MEMORY;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, state.tasks.live());       // ready-list population
  if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
    EOF_COV_BUCKET(ctx, priority / 2 + 12);      // tickless-idle wakeup rows
  }
  ctx.ConsumeCycles(kContextSwitchCycles);
  return handle;
}

int64_t TaskDelete(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (handle == 0) {
    // Deleting the calling task: legal, the idle task reaps it.
    EOF_COV(ctx);
    return pdPASS;
  }
  Tcb* tcb = state.tasks.Find(handle);
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(static_cast<uint64_t>(tcb->stack_words) * 4 + 128);
  state.tasks.Remove(handle);
  ctx.ConsumeCycles(kContextSwitchCycles);
  return pdPASS;
}

int64_t TaskDelay(KernelContext& ctx, FreeRtosState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t ticks = args[0].scalar;
  if (ticks == 0) {
    EOF_COV(ctx);
    return pdPASS;  // taskYIELD equivalent
  }
  if (ticks > 1000) {
    EOF_COV(ctx);
    ticks = 1000;  // the agent caps sleeps so fuzzing keeps moving
  }
  state.tick_count += ticks;
  ctx.ConsumeCycles(ticks * kTickCycles / 10);
  return pdPASS;
}

int64_t TaskPrioritySet(KernelContext& ctx, FreeRtosState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Tcb* tcb = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  uint32_t priority = static_cast<uint32_t>(args[1].scalar);
  if (priority >= configMAX_PRIORITIES) {
    EOF_COV(ctx);
    priority = configMAX_PRIORITIES - 1;
  }
  if (priority > tcb->priority) {
    EOF_COV(ctx);  // priority raise may trigger an immediate switch
    ctx.ConsumeCycles(kContextSwitchCycles);
  }
  tcb->priority = priority;
  return pdPASS;
}

int64_t TaskPriorityGet(KernelContext& ctx, FreeRtosState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Tcb* tcb = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return -1;
  }
  return tcb->priority;
}

int64_t TaskSuspend(KernelContext& ctx, FreeRtosState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Tcb* tcb = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (tcb->state == TaskState::kSuspended) {
    EOF_COV(ctx);
    return pdPASS;  // idempotent
  }
  EOF_COV(ctx);
  tcb->state = TaskState::kSuspended;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return pdPASS;
}

int64_t TaskResume(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Tcb* tcb = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (tcb->state != TaskState::kSuspended) {
    EOF_COV(ctx);
    return pdFAIL;  // vTaskResume on a non-suspended task is a no-op
  }
  EOF_COV(ctx);
  tcb->state = TaskState::kReady;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return pdPASS;
}

int64_t TaskCount(KernelContext& ctx, FreeRtosState& state,
                  const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.tasks.live());
}

int64_t TaskNotify(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Tcb* tcb = state.tasks.Find(static_cast<int64_t>(args[0].scalar));
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  uint32_t value = static_cast<uint32_t>(args[1].scalar);
  uint64_t action = args[2].scalar;
  switch (action) {
    case eNoAction:
      EOF_COV(ctx);
      break;
    case eSetBits:
      EOF_COV(ctx);
      tcb->notify_value |= value;
      break;
    case eIncrement:
      EOF_COV(ctx);
      ++tcb->notify_value;
      break;
    case eSetValueWithOverwrite:
      EOF_COV(ctx);
      tcb->notify_value = value;
      break;
    case eSetValueWithoutOverwrite:
      if (tcb->notify_pending) {
        EOF_COV(ctx);
        return pdFAIL;
      }
      EOF_COV(ctx);
      tcb->notify_value = value;
      break;
    default:
      EOF_COV(ctx);
      return pdFAIL;
  }
  tcb->notify_pending = true;
  return pdPASS;
}

int64_t TaskNotifyTake(KernelContext& ctx, FreeRtosState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  bool clear_on_exit = args[0].scalar != 0;
  int64_t handle = static_cast<int64_t>(args[1].scalar);
  Tcb* tcb = state.tasks.Find(handle);
  if (tcb == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint32_t value = tcb->notify_value;
  if (!tcb->notify_pending) {
    EOF_COV(ctx);
    return 0;  // would block; agent context never blocks
  }
  EOF_COV(ctx);
  tcb->notify_pending = false;
  if (clear_on_exit) {
    EOF_COV(ctx);
    tcb->notify_value = 0;
  } else {
    tcb->notify_value = value > 0 ? value - 1 : 0;
  }
  return value;
}

}  // namespace

Status RegisterTaskApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "xTaskCreate";
    spec.subsystem = "task";
    spec.doc = "create a task with a name, stack depth (words) and priority";
    spec.args = {ArgSpec::String("name"),
                 ArgSpec::Scalar("stack_words", 32, 0, 4096),
                 ArgSpec::Scalar("priority", 32, 0, 32)};
    spec.produces = "task";
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskCreate));
  }
  {
    ApiSpec spec;
    spec.name = "vTaskDelete";
    spec.subsystem = "task";
    spec.doc = "delete a task (0 = calling task)";
    spec.args = {ArgSpec::Resource("task", "task", /*optional_null=*/true)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskDelete));
  }
  {
    ApiSpec spec;
    spec.name = "vTaskDelay";
    spec.subsystem = "task";
    spec.doc = "block the calling task for N ticks";
    spec.args = {ArgSpec::Scalar("ticks", 32, 0, 2000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskDelay));
  }
  {
    ApiSpec spec;
    spec.name = "vTaskPrioritySet";
    spec.subsystem = "task";
    spec.doc = "change a task's priority";
    spec.args = {ArgSpec::Resource("task", "task"), ArgSpec::Scalar("priority", 32, 0, 64)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskPrioritySet));
  }
  {
    ApiSpec spec;
    spec.name = "uxTaskPriorityGet";
    spec.subsystem = "task";
    spec.doc = "read a task's priority";
    spec.args = {ArgSpec::Resource("task", "task")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskPriorityGet));
  }
  {
    ApiSpec spec;
    spec.name = "vTaskSuspend";
    spec.subsystem = "task";
    spec.doc = "suspend a task";
    spec.args = {ArgSpec::Resource("task", "task")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskSuspend));
  }
  {
    ApiSpec spec;
    spec.name = "vTaskResume";
    spec.subsystem = "task";
    spec.doc = "resume a suspended task";
    spec.args = {ArgSpec::Resource("task", "task")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskResume));
  }
  {
    ApiSpec spec;
    spec.name = "uxTaskGetNumberOfTasks";
    spec.subsystem = "task";
    spec.doc = "number of live tasks";
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskCount));
  }
  {
    ApiSpec spec;
    spec.name = "xTaskNotify";
    spec.subsystem = "task";
    spec.doc = "send a direct-to-task notification";
    spec.args = {ArgSpec::Resource("task", "task"),
                 ArgSpec::Scalar("value", 32, 0, UINT32_MAX),
                 ArgSpec::Flags("action", {0, 1, 2, 3, 4})};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskNotify));
  }
  {
    ApiSpec spec;
    spec.name = "ulTaskNotifyTake";
    spec.subsystem = "task";
    spec.doc = "consume a pending notification";
    spec.args = {ArgSpec::Scalar("clear_on_exit", 8, 0, 1),
                 ArgSpec::Resource("task", "task")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TaskNotifyTake));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
