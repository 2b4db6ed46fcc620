// "RTService": the background service registry built on rt_list (the rt_slist surface the
// paper attributes bug #6 to).
//
// ── Bug #6 (Table 2): RT-Thread / RTService / Kernel Panic / rt_list_isempty() ──
// Unregistering a service whose node was already unlinked leaves the registry list with a
// self-referencing node. With three or more services ever registered the poll loop's
// rt_list_isempty() dereferences the poisoned next pointer — kernel panic. The poll loop
// samples GPIO lines, so the whole subsystem is dormant on boards without GPIO hardware.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/service");

int64_t ServiceRegister(KernelContext& ctx, RtThreadState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.HasPeripheral(Peripheral::kGpio)) {
    EOF_COV(ctx);
    return RT_ERROR;  // service workers poll GPIO; absent hardware, registration fails
  }
  if (state.services.size() >= 16) {
    EOF_COV(ctx);
    return RT_EFULL;
  }
  ServiceNode node;
  node.name = args[0].AsString().substr(0, 8);
  node.registered = true;
  node.ever_registered = true;
  state.services.push_back(node);
  ++state.services_ever;
  // Registration staircase toward the bug-#6 precondition.
  if (state.services_ever == 2) {
    EOF_COV(ctx);
  }
  if (state.services_ever == 3) {
    EOF_COV(ctx);
  }
  if (state.services_ever == 4) {
    EOF_COV(ctx);
  }
  if (state.services_ever >= 5) {
    EOF_COV(ctx);
  }
  EOF_COV_BUCKET(ctx, state.services.size());
  return static_cast<int64_t>(state.services.size());  // handle = index + 1, no generation
}

int64_t ServiceUnregister(KernelContext& ctx, RtThreadState& state,
                          const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (handle <= 0 || static_cast<size_t>(handle) > state.services.size()) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  ServiceNode& node = state.services[static_cast<size_t>(handle) - 1];
  if (!node.registered) {
    EOF_COV(ctx);
    // Second unlink of the same node: rt_list_remove on an already-unlinked node leaves
    // next pointing at the node itself. The damage only reaches the live list when the
    // node sits between two still-registered neighbours.
    uint64_t live = 0;
    for (const ServiceNode& other : state.services) {
      if (other.registered) {
        ++live;
      }
    }
    if (live >= 2) {
      EOF_COV(ctx);
      state.service_list_corrupt = true;
    }
    return RT_EOK;  // and the API reports success, hiding the damage
  }
  EOF_COV(ctx);
  node.registered = false;
  ctx.ConsumeCycles(kListOpCycles * 2);
  return RT_EOK;
}

int64_t ServicePoll(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.HasPeripheral(Peripheral::kGpio)) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  if (state.service_list_corrupt && state.services_ever >= 5) {
    EOF_COV(ctx);
    // BUG #6: rt_list_isempty on the poisoned list head.
    ctx.Panic("BUG: kernel panic - rt_list_isempty: invalid list node 0xdeadbeef",
              "Stack frames at BUG:\n"
              " Level 1: rtservice.h : rt_list_isempty : 88\n"
              " Level 2: rtservice.c : rt_service_poll : 412\n"
              " Level 3: agent : execute_one");
  }
  int64_t active = 0;
  for (const ServiceNode& node : state.services) {
    ctx.ConsumeCycles(kListOpCycles * 3);  // GPIO sample per service
    if (node.registered) {
      ++active;
    }
  }
  EOF_COV(ctx);
  return active;
}

}  // namespace

Status RegisterServiceApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_service_register";
    spec.subsystem = "service";
    spec.doc = "register a background GPIO-polling service";
    spec.args = {ArgSpec::String("name", {"svc0", "svc1", "svc2"})};
    spec.produces = "rt_service";
    RETURN_IF_ERROR(table.Register(std::move(spec), ServiceRegister));
  }
  {
    ApiSpec spec;
    spec.name = "rt_service_unregister";
    spec.subsystem = "service";
    spec.doc = "unregister a service";
    spec.args = {ArgSpec::Resource("service", "rt_service")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ServiceUnregister));
  }
  {
    ApiSpec spec;
    spec.name = "rt_service_poll";
    spec.subsystem = "service";
    spec.doc = "run one poll pass over all registered services";
    RETURN_IF_ERROR(table.Register(std::move(spec), ServicePoll));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
