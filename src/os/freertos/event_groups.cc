// Event groups: 24 usable bits per group, set/clear/wait semantics per event_groups.c.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/event");

// The top byte of the bits word is reserved for kernel control bits.
constexpr uint32_t kEventBitsMask = 0x00ffffff;

int64_t EventGroupCreate(KernelContext& ctx, FreeRtosState& state,
                         const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.ReserveRam(48).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  int64_t handle = state.event_groups.Insert(EventGroup{});
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(48);
  }
  return handle;
}

int64_t EventGroupSetBits(KernelContext& ctx, FreeRtosState& state,
                          const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  EventGroup* group = state.event_groups.Find(static_cast<int64_t>(args[0].scalar));
  if (group == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint32_t bits = static_cast<uint32_t>(args[1].scalar);
  if ((bits & ~kEventBitsMask) != 0) {
    EOF_COV(ctx);  // control bits stripped, as configASSERT would flag in debug builds
    bits &= kEventBitsMask;
  }
  EOF_COV_BUCKET(ctx, static_cast<uint64_t>(__builtin_popcount(group->bits | bits)));
  group->bits |= bits;
  return group->bits;
}

int64_t EventGroupClearBits(KernelContext& ctx, FreeRtosState& state,
                            const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  EventGroup* group = state.event_groups.Find(static_cast<int64_t>(args[0].scalar));
  if (group == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint32_t before = group->bits;
  group->bits &= ~static_cast<uint32_t>(args[1].scalar);
  return before;
}

int64_t EventGroupWaitBits(KernelContext& ctx, FreeRtosState& state,
                           const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  EventGroup* group = state.event_groups.Find(static_cast<int64_t>(args[0].scalar));
  if (group == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint32_t wait_bits = static_cast<uint32_t>(args[1].scalar) & kEventBitsMask;
  bool clear_on_exit = args[2].scalar != 0;
  bool wait_all = args[3].scalar != 0;
  if (wait_bits == 0) {
    EOF_COV(ctx);
    return 0;  // waiting for nothing is rejected
  }
  bool satisfied = wait_all ? (group->bits & wait_bits) == wait_bits
                            : (group->bits & wait_bits) != 0;
  uint32_t snapshot = group->bits;
  if (satisfied) {
    EOF_COV(ctx);
    if (clear_on_exit) {
      EOF_COV(ctx);
      group->bits &= ~wait_bits;
    }
    return snapshot;
  }
  EOF_COV(ctx);
  return snapshot;  // zero-timeout poll: return current bits unsatisfied
}

int64_t EventGroupDelete(KernelContext& ctx, FreeRtosState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.event_groups.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  state.event_groups.Remove(handle);
  ctx.ReleaseRam(48);
  return pdPASS;
}

}  // namespace

Status RegisterEventGroupApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "xEventGroupCreate";
    spec.subsystem = "event";
    spec.doc = "create an event group";
    spec.produces = "event_group";
    RETURN_IF_ERROR(table.Register(std::move(spec), EventGroupCreate));
  }
  {
    ApiSpec spec;
    spec.name = "xEventGroupSetBits";
    spec.subsystem = "event";
    spec.doc = "set bits in an event group";
    spec.args = {ArgSpec::Resource("group", "event_group"),
                 ArgSpec::Scalar("bits", 32, 0, UINT32_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventGroupSetBits));
  }
  {
    ApiSpec spec;
    spec.name = "xEventGroupClearBits";
    spec.subsystem = "event";
    spec.doc = "clear bits in an event group";
    spec.args = {ArgSpec::Resource("group", "event_group"),
                 ArgSpec::Scalar("bits", 32, 0, UINT32_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventGroupClearBits));
  }
  {
    ApiSpec spec;
    spec.name = "xEventGroupWaitBits";
    spec.subsystem = "event";
    spec.doc = "poll for bits in an event group";
    spec.args = {ArgSpec::Resource("group", "event_group"),
                 ArgSpec::Scalar("bits", 32, 0, UINT32_MAX),
                 ArgSpec::Scalar("clear_on_exit", 8, 0, 1),
                 ArgSpec::Scalar("wait_all", 8, 0, 1)};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventGroupWaitBits));
  }
  {
    ApiSpec spec;
    spec.name = "vEventGroupDelete";
    spec.subsystem = "event";
    spec.doc = "destroy an event group";
    spec.args = {ArgSpec::Resource("group", "event_group")};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventGroupDelete));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
