// POSIX timers.
//
// ── Bug #18 (Table 2): NuttX / Timer / Kernel Panic / timer_create() ──
// timer_create() stores the notification signal in a per-task sigset indexed by signo.
// For CLOCK_BOOTTIME timers the early-path validation is skipped (a refactor artifact),
// so signo > 31 indexes past the 32-bit sigset into the TCB — kernel panic.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/timer");

constexpr uint32_t CLOCK_REALTIME_ = 0;
constexpr uint32_t CLOCK_MONOTONIC_ = 1;
constexpr uint32_t CLOCK_BOOTTIME_ = 7;
constexpr uint32_t MAX_SIGNO_ = 31;

int64_t TimerCreate(KernelContext& ctx, NuttxState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t clockid = static_cast<uint32_t>(args[0].scalar);
  uint32_t signo = static_cast<uint32_t>(args[1].scalar);
  if (clockid != CLOCK_REALTIME_ && clockid != CLOCK_MONOTONIC_ &&
      clockid != CLOCK_BOOTTIME_) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (clockid == CLOCK_BOOTTIME_) {
    EOF_COV(ctx);
    // Refactor artifact: the signo range check below is skipped for boot-time timers, and
    // the sigset row it smashes belongs to the TCB only once earlier timers populated the
    // adjacent rows.
    if (signo > MAX_SIGNO_ && state.timers.live() >= 2) {
      EOF_COV(ctx);
      // BUG #18: sigset indexed past its 32 bits into the TCB.
      ctx.Panic(StrFormat("up_assert: PANIC! timer_create: signo %u smashes TCB sigset",
                          signo),
                "Stack frames at BUG:\n"
                " Level 1: timer_create.c : timer_create : 143\n"
                " Level 2: agent : execute_one");
    }
  } else if (signo > MAX_SIGNO_) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  PosixTimer timer;
  timer.clockid = clockid;
  timer.signo = signo;
  int64_t handle = state.timers.Insert(std::move(timer));
  if (handle == 0) {
    EOF_COV(ctx);
    return ENOMEM_;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t TimerSettime(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  uint64_t period_ns = args[1].scalar;
  if (period_ns == 0) {
    EOF_COV(ctx);
    timer->armed = false;  // zero it -> disarm
    return OK_;
  }
  EOF_COV(ctx);
  if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
    // High-resolution arming path: programs the hardware compare unit.
    EOF_COV_BUCKET(ctx, CovSizeClass(period_ns / 1000000));  // period class (ms)
    EOF_COV_BUCKET(ctx, state.timers.live() + 12);
  }
  timer->period_ns = period_ns;
  timer->armed = true;
  return OK_;
}

int64_t TimerGettime(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  return timer->armed ? static_cast<int64_t>(timer->period_ns) : 0;
}

int64_t TimerGetoverrun(KernelContext& ctx, NuttxState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PosixTimer* timer = state.timers.Find(static_cast<int64_t>(args[0].scalar));
  if (timer == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  return timer->overruns;
}

int64_t TimerDelete(KernelContext& ctx, NuttxState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.timers.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  state.timers.Remove(handle);
  return OK_;
}

}  // namespace

Status RegisterTimerApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "timer_create";
    spec.subsystem = "timer";
    spec.doc = "create a POSIX timer with a notification signal";
    spec.args = {ArgSpec::Flags("clockid", {0, 1, 7}, /*combinable=*/false),
                 ArgSpec::Scalar("signo", 32, 0, 63)};
    spec.produces = "nx_timer";
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerCreate));
  }
  {
    ApiSpec spec;
    spec.name = "timer_settime";
    spec.subsystem = "timer";
    spec.doc = "arm/disarm a timer (period in ns; 0 disarms)";
    spec.args = {ArgSpec::Resource("timer", "nx_timer"),
                 ArgSpec::Scalar("period_ns", 64, 0, 10000000000ULL)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerSettime));
  }
  {
    ApiSpec spec;
    spec.name = "timer_gettime";
    spec.subsystem = "timer";
    spec.doc = "remaining time of an armed timer";
    spec.args = {ArgSpec::Resource("timer", "nx_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerGettime));
  }
  {
    ApiSpec spec;
    spec.name = "timer_getoverrun";
    spec.subsystem = "timer";
    spec.doc = "overrun count of a timer";
    spec.args = {ArgSpec::Resource("timer", "nx_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerGetoverrun));
  }
  {
    ApiSpec spec;
    spec.name = "timer_delete";
    spec.subsystem = "timer";
    spec.doc = "destroy a timer";
    spec.args = {ArgSpec::Resource("timer", "nx_timer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimerDelete));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
