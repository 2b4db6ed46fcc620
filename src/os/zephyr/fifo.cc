// k_fifo: pointer FIFOs.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/fifo");

int64_t FifoInit(KernelContext& ctx, ZephyrState& state, const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = state.fifos.Insert(Fifo{});
  if (handle == 0) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t FifoPut(KernelContext& ctx, ZephyrState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Fifo* fifo = state.fifos.Find(static_cast<int64_t>(args[0].scalar));
  if (fifo == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (fifo->items.size() >= 256) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  if (ctx.HasPeripheral(Peripheral::kGpio)) {
    // ISR-producer bookkeeping rows: only compiled in with the GPIO driver present.
    EOF_COV_BUCKET(ctx, fifo->items.size());
  }
  fifo->items.push_back(args[1].scalar);
  ctx.ConsumeCycles(kListOpCycles);
  return Z_OK;
}

int64_t FifoGet(KernelContext& ctx, ZephyrState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Fifo* fifo = state.fifos.Find(static_cast<int64_t>(args[0].scalar));
  if (fifo == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (fifo->items.empty()) {
    EOF_COV(ctx);
    return 0;  // NULL with K_NO_WAIT
  }
  EOF_COV(ctx);
  int64_t value = static_cast<int64_t>(fifo->items.front());
  fifo->items.pop_front();
  ctx.ConsumeCycles(kListOpCycles);
  return value;
}

int64_t FifoIsEmpty(KernelContext& ctx, ZephyrState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  Fifo* fifo = state.fifos.Find(static_cast<int64_t>(args[0].scalar));
  if (fifo == nullptr) {
    EOF_COV(ctx);
    return 1;
  }
  return fifo->items.empty() ? 1 : 0;
}

}  // namespace

Status RegisterFifoApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "k_fifo_init";
    spec.subsystem = "fifo";
    spec.doc = "initialise a FIFO";
    spec.produces = "z_fifo";
    RETURN_IF_ERROR(table.Register(std::move(spec), FifoInit));
  }
  {
    ApiSpec spec;
    spec.name = "k_fifo_put";
    spec.subsystem = "fifo";
    spec.doc = "append an item";
    spec.args = {ArgSpec::Resource("fifo", "z_fifo"),
                 ArgSpec::Scalar("value", 64, 0, UINT64_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), FifoPut));
  }
  {
    ApiSpec spec;
    spec.name = "k_fifo_get";
    spec.subsystem = "fifo";
    spec.doc = "pop the head item (K_NO_WAIT)";
    spec.args = {ArgSpec::Resource("fifo", "z_fifo")};
    RETURN_IF_ERROR(table.Register(std::move(spec), FifoGet));
  }
  {
    ApiSpec spec;
    spec.name = "k_fifo_is_empty";
    spec.subsystem = "fifo";
    spec.doc = "emptiness check";
    spec.args = {ArgSpec::Resource("fifo", "z_fifo")};
    RETURN_IF_ERROR(table.Register(std::move(spec), FifoIsEmpty));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
