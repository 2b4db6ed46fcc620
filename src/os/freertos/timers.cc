// Software timers, serviced by the (simulated) timer daemon task on each tick.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/timer");

int64_t TimerCreate(KernelContext& ctx, FreeRtosState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t period = args[1].scalar;
  if (period == 0) {
    EOF_COV(ctx);
    return 0;  // configASSERT(xTimerPeriodInTicks > 0)
  }
  if (!ctx.ReserveRam(64).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  SwTimer timer;
  timer.name = args[0].AsString().substr(0, 16);
  timer.period_ticks = period;
  timer.autoreload = args[2].scalar != 0;
  int64_t handle = state.timers.Insert(std::move(timer));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(64);
  }
  return handle;
}

int64_t TimerStart(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  SwTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
    // High-resolution prescaler rows: programmed on the hardware timer block.
    EOF_COV_BUCKET(ctx, state.timers.live());
    EOF_COV_BUCKET(ctx, CovSizeClass(timer->period_ticks) + 10);
  }
  timer->active = true;
  timer->expiry_tick = state.tick_count + timer->period_ticks;
  return pdPASS;
}

int64_t TimerStop(KernelContext& ctx, FreeRtosState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  SwTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (!timer->active) {
    EOF_COV(ctx);
    return pdFAIL;  // stop command on a dormant timer fails the daemon queue check
  }
  EOF_COV(ctx);
  timer->active = false;
  return pdPASS;
}

int64_t TimerChangePeriod(KernelContext& ctx, FreeRtosState& state,
                          const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  SwTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  uint64_t period = args[1].scalar;
  if (period == 0) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  timer->period_ticks = period;
  // xTimerChangePeriod (re)starts the timer, even if it was dormant.
  timer->active = true;
  timer->expiry_tick = state.tick_count + period;
  return pdPASS;
}

int64_t TimerDelete(KernelContext& ctx, FreeRtosState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.timers.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  state.timers.Remove(handle);
  ctx.ReleaseRam(64);
  return pdPASS;
}

int64_t TimerIsActive(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  SwTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  return timer->active ? pdPASS : pdFAIL;
}

}  // namespace

void TimersOnTick(KernelContext& ctx, FreeRtosState& state) {
  state.timers.ForEach([&](int64_t handle, SwTimer& timer) {
    (void)handle;
    if (!timer.active || timer.expiry_tick > state.tick_count) {
      return;
    }
    EOF_COV(ctx);
    ++timer.fire_count;
    ctx.ConsumeCycles(kListOpCycles * 4);
    if (timer.autoreload) {
      timer.expiry_tick = state.tick_count + timer.period_ticks;
    } else {
      timer.active = false;
    }
  });
}

Status RegisterTimerApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "xTimerCreate";
    spec.subsystem = "timer";
    spec.doc = "create a software timer";
    spec.args = {ArgSpec::String("name"), ArgSpec::Scalar("period_ticks", 32, 0, 10000),
                 ArgSpec::Scalar("autoreload", 8, 0, 1)};
    spec.produces = "fr_timer";
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerCreate));
  }
  {
    ApiSpec spec;
    spec.name = "xTimerStart";
    spec.subsystem = "timer";
    spec.doc = "start a timer";
    spec.args = {ArgSpec::Resource("timer", "fr_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerStart));
  }
  {
    ApiSpec spec;
    spec.name = "xTimerStop";
    spec.subsystem = "timer";
    spec.doc = "stop a timer";
    spec.args = {ArgSpec::Resource("timer", "fr_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerStop));
  }
  {
    ApiSpec spec;
    spec.name = "xTimerChangePeriod";
    spec.subsystem = "timer";
    spec.doc = "change a timer's period (restarts it)";
    spec.args = {ArgSpec::Resource("timer", "fr_timer"),
                 ArgSpec::Scalar("period_ticks", 32, 0, 10000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerChangePeriod));
  }
  {
    ApiSpec spec;
    spec.name = "xTimerDelete";
    spec.subsystem = "timer";
    spec.doc = "destroy a timer";
    spec.args = {ArgSpec::Resource("timer", "fr_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerDelete));
  }
  {
    ApiSpec spec;
    spec.name = "xTimerIsTimerActive";
    spec.subsystem = "timer";
    spec.doc = "query whether a timer is running";
    spec.args = {ArgSpec::Resource("timer", "fr_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerIsActive));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
