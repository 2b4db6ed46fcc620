// libc time: clock_settime/gettime/getres and gettimeofday.
//
// ── Bug #15 (Table 2): NuttX / Libc / Kernel Panic / gettimeofday() ──
// gettimeofday() converts the 64-bit realtime seconds through a signed 32-bit
// intermediate; after clock_settime set an epoch beyond INT32_MAX the microsecond
// multiply overflows and the result-pointer arithmetic faults.
//
// ── Bug #19 (Table 2): NuttX / Libc / Kernel Panic / clock_getres() ──
// The resolution table indexes clockids 0..5 but CLOCK_MONOTONIC_COARSE (6) slipped into
// the headers without a table row — clock_getres(6) reads a null row pointer. The id 6
// exists only in header text, i.e. only the LLM-mined extended specs know it.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/libc");

constexpr uint32_t CLOCK_REALTIME_ = 0;
constexpr uint32_t CLOCK_MONOTONIC_ = 1;
constexpr uint32_t CLOCK_BOOTTIME_ = 7;
constexpr uint32_t CLOCK_MONOTONIC_COARSE_ = 6;

int64_t ClockSettime(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t clockid = static_cast<uint32_t>(args[0].scalar);
  uint64_t sec = args[1].scalar;
  uint64_t nsec = args[2].scalar;
  if (clockid != CLOCK_REALTIME_) {
    EOF_COV(ctx);
    return EINVAL_;  // only the realtime clock is settable
  }
  if (nsec >= 1000000000ULL) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  state.realtime_sec = sec;
  state.realtime_nsec = nsec;
  state.clock_was_set = true;
  return OK_;
}

int64_t ClockGettime(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t clockid = static_cast<uint32_t>(args[0].scalar);
  switch (clockid) {
    case CLOCK_REALTIME_:
      EOF_COV(ctx);
      return static_cast<int64_t>(state.realtime_sec);
    case CLOCK_MONOTONIC_:
    case CLOCK_BOOTTIME_:
      EOF_COV(ctx);
      if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
        EOF_COV(ctx);  // sub-tick refinement from the free-running counter
        EOF_COV_BUCKET(ctx, CovSizeClass(state.boot_ticks) + 12);
      }
      return static_cast<int64_t>(state.boot_ticks / 100);
    default:
      EOF_COV(ctx);
      return EINVAL_;
  }
}

int64_t ClockGetres(KernelContext& ctx, NuttxState& state,
                    const std::vector<ArgValue>& args) {
  (void)state;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t clockid = static_cast<uint32_t>(args[0].scalar);
  if (clockid == CLOCK_MONOTONIC_COARSE_) {
    EOF_COV(ctx);
    // BUG #19: header constant without a resolution-table row.
    ctx.Panic("up_assert: PANIC! null deref in clock_getres (clockid=6)",
              "Stack frames at BUG:\n"
              " Level 1: clock_getres.c : clock_getres : 98\n"
              " Level 2: agent : execute_one");
  }
  if (clockid > CLOCK_BOOTTIME_) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  return 10000000;  // 10 ms tick resolution, ns
}

int64_t Gettimeofday(KernelContext& ctx, NuttxState& state,
                     const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (state.clock_was_set && state.realtime_sec > 0x7fffffffULL &&
      state.realtime_nsec > 500000000ULL) {
    EOF_COV(ctx);
    // BUG #15: signed-32 intermediate overflow after a far-future clock_settime.
    ctx.Panic("up_assert: PANIC! arithmetic fault in gettimeofday tv_usec conversion",
              "Stack frames at BUG:\n"
              " Level 1: lib_gettimeofday.c : gettimeofday : 71\n"
              " Level 2: agent : execute_one");
  }
  EOF_COV(ctx);
  return static_cast<int64_t>(state.realtime_sec);
}

}  // namespace

Status RegisterTimeApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "clock_settime";
    spec.subsystem = "libc";
    spec.doc = "set a system clock";
    spec.args = {ArgSpec::Flags("clockid", {0, 1}),
                 ArgSpec::Scalar("sec", 64, 0, 8589934592ULL),
                 ArgSpec::Scalar("nsec", 32, 0, 2000000000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ClockSettime));
  }
  {
    ApiSpec spec;
    spec.name = "clock_gettime";
    spec.subsystem = "libc";
    spec.doc = "read a system clock";
    spec.args = {ArgSpec::Flags("clockid", {0, 1}, /*combinable=*/false)};
    spec.args[0].extended_flag_values = {4, 7};
    RETURN_IF_ERROR(table.Register(std::move(spec), ClockGettime));
  }
  {
    ApiSpec spec;
    spec.name = "clock_getres";
    spec.subsystem = "libc";
    spec.doc = "clock resolution query";
    spec.args = {ArgSpec::Flags("clockid", {0, 1, 4}, /*combinable=*/false)};
    spec.args[0].extended_flag_values = {6, 7};  // header-only ids, LLM-mined
    RETURN_IF_ERROR(table.Register(std::move(spec), ClockGetres));
  }
  {
    ApiSpec spec;
    spec.name = "gettimeofday";
    spec.subsystem = "libc";
    spec.doc = "BSD-style wall-clock read";
    RETURN_IF_ERROR(table.Register(std::move(spec), Gettimeofday));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
