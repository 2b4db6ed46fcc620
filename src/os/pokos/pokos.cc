#include "src/os/pokos/pokos.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"

namespace eof {
namespace pokos {
namespace {

EOF_COV_MODULE("pokos/kernel");

int64_t PartitionCreate(KernelContext& ctx, PokState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t memory = args[1].scalar;
  uint64_t slice = args[2].scalar;
  if (memory == 0 || memory > 64 * 1024) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (slice == 0 || slice > 1000) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (!ctx.ReserveRam(memory).ok()) {
    EOF_COV(ctx);
    return POK_ERRNO_TOOMANY;
  }
  PokPartition partition;
  partition.name = args[0].AsString().substr(0, 16);
  partition.memory_bytes = memory;
  partition.time_slice_ms = slice;
  int64_t handle = state.partitions.Insert(std::move(partition));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(memory);
    return POK_ERRNO_TOOMANY;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, state.partitions.live() + 8);
  EOF_COV_BUCKET(ctx, CovSizeClass(memory) + 12);
  return handle;
}

int64_t PartitionSetMode(KernelContext& ctx, PokState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PokPartition* partition = state.partitions.Find(static_cast<int64_t>(args[0].scalar));
  if (partition == nullptr) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  uint64_t mode = args[1].scalar;
  if (mode > 3) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  // ARINC 653 mode transition rules: NORMAL can only be entered from a START mode.
  PartitionMode target = static_cast<PartitionMode>(mode);
  if (target == PartitionMode::kNormal &&
      partition->mode != PartitionMode::kColdStart &&
      partition->mode != PartitionMode::kWarmStart) {
    EOF_COV(ctx);
    return POK_ERRNO_MODE;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, static_cast<uint64_t>(partition->mode) * 4 + mode);  // transition pair
  partition->mode = target;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return POK_ERRNO_OK;
}

int64_t ThreadCreate(KernelContext& ctx, PokState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PokPartition* partition = state.partitions.Find(static_cast<int64_t>(args[0].scalar));
  if (partition == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  if (partition->mode == PartitionMode::kNormal) {
    EOF_COV(ctx);
    return 0;  // threads may only be created before NORMAL mode
  }
  uint32_t priority = static_cast<uint32_t>(args[1].scalar);
  if (priority > 255) {
    EOF_COV(ctx);
    return 0;
  }
  if (partition->thread_count >= 8) {
    EOF_COV(ctx);
    return 0;
  }
  PokThread thread;
  thread.partition = static_cast<int64_t>(args[0].scalar);
  thread.priority = priority;
  thread.period_ms = args[2].scalar;
  int64_t handle = state.threads.Insert(std::move(thread));
  if (handle == 0) {
    EOF_COV(ctx);
    return 0;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, partition->thread_count + 16);
  ++partition->thread_count;
  return handle;
}

int64_t ThreadStart(KernelContext& ctx, PokState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  PokThread* thread = state.threads.Find(static_cast<int64_t>(args[0].scalar));
  if (thread == nullptr) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  PokPartition* partition = state.partitions.Find(thread->partition);
  if (partition == nullptr || partition->mode != PartitionMode::kNormal) {
    EOF_COV(ctx);
    return POK_ERRNO_MODE;  // threads run only in NORMAL mode
  }
  EOF_COV(ctx);
  thread->started = true;
  ctx.ConsumeCycles(kContextSwitchCycles);
  return POK_ERRNO_OK;
}

int64_t SamplingCreate(KernelContext& ctx, PokState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t max_size = static_cast<uint32_t>(args[1].scalar);
  if (max_size == 0 || max_size > 1024) {
    EOF_COV(ctx);
    return 0;
  }
  SamplingPort port;
  port.name = args[0].AsString().substr(0, 16);
  port.max_size = max_size;
  port.is_source = args[2].scalar != 0;
  port.validity_ms = std::max<uint64_t>(args[3].scalar, 1);
  int64_t handle = state.sampling_ports.Insert(std::move(port));
  if (handle == 0) {
    EOF_COV(ctx);
    return 0;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t SamplingWrite(KernelContext& ctx, PokState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  SamplingPort* port = state.sampling_ports.Find(static_cast<int64_t>(args[0].scalar));
  if (port == nullptr) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (!port->is_source) {
    EOF_COV(ctx);
    return POK_ERRNO_MODE;  // writing a destination port
  }
  const std::vector<uint8_t>& message = args[1].bytes;
  if (message.empty() || message.size() > port->max_size) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(message.size()));
  ctx.ConsumeCycles(kCopyPerByteCycles * message.size());
  port->last_message = message;
  port->last_write_tick = state.tick_ms;
  return POK_ERRNO_OK;
}

int64_t SamplingRead(KernelContext& ctx, PokState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  SamplingPort* port = state.sampling_ports.Find(static_cast<int64_t>(args[0].scalar));
  if (port == nullptr) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (port->last_message.empty()) {
    EOF_COV(ctx);
    return POK_ERRNO_EMPTY;
  }
  bool valid = state.tick_ms - port->last_write_tick <= port->validity_ms;
  if (!valid) {
    EOF_COV(ctx);  // stale sample: reported with the validity flag cleared
    EOF_COV_BUCKET(ctx, CovSizeClass(state.tick_ms - port->last_write_tick) + 10);
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * port->last_message.size());
  return static_cast<int64_t>(port->last_message.size());
}

int64_t QueuingCreate(KernelContext& ctx, PokState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t max_size = static_cast<uint32_t>(args[1].scalar);
  uint32_t depth = static_cast<uint32_t>(args[2].scalar);
  if (max_size == 0 || max_size > 1024 || depth == 0 || depth > 32) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(static_cast<uint64_t>(max_size) * depth).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  QueuingPort port;
  port.name = args[0].AsString().substr(0, 16);
  port.max_size = max_size;
  port.depth = depth;
  port.is_source = args[3].scalar != 0;
  int64_t handle = state.queuing_ports.Insert(std::move(port));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(static_cast<uint64_t>(max_size) * depth);
    return 0;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t QueuingSend(KernelContext& ctx, PokState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  QueuingPort* port = state.queuing_ports.Find(static_cast<int64_t>(args[0].scalar));
  if (port == nullptr || !port->is_source) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  const std::vector<uint8_t>& message = args[1].bytes;
  if (message.size() > port->max_size) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (port->queue.size() >= port->depth) {
    EOF_COV(ctx);
    return POK_ERRNO_FULL;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, port->queue.size());  // absolute queue depth
  ctx.ConsumeCycles(kCopyPerByteCycles * message.size());
  port->queue.push_back(message);
  return POK_ERRNO_OK;
}

int64_t QueuingReceive(KernelContext& ctx, PokState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  QueuingPort* port = state.queuing_ports.Find(static_cast<int64_t>(args[0].scalar));
  if (port == nullptr) {
    EOF_COV(ctx);
    return POK_ERRNO_EINVAL;
  }
  if (port->queue.empty()) {
    EOF_COV(ctx);
    return POK_ERRNO_EMPTY;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(port->queue.front().size()) + 12);
  int64_t size = static_cast<int64_t>(port->queue.front().size());
  ctx.ConsumeCycles(kCopyPerByteCycles * static_cast<uint64_t>(size));
  port->queue.pop_front();
  return size;
}

int64_t TimeGet(KernelContext& ctx, PokState& state, const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.tick_ms);
}

int64_t TimedWait(KernelContext& ctx, PokState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t ms = std::min<uint64_t>(args[0].scalar, 100);
  state.tick_ms += ms;
  ctx.ConsumeCycles(ms * kTickCycles / 4);
  return POK_ERRNO_OK;
}

Status RegisterPokApis(ApiTable<PokState>& table) {
  {
    ApiSpec spec;
    spec.name = "pok_partition_create";
    spec.subsystem = "kernel";
    spec.doc = "create a spatial/temporal partition";
    spec.args = {ArgSpec::String("name", {"p0", "p1", "fctl"}),
                 ArgSpec::Scalar("memory", 32, 0, 131072),
                 ArgSpec::Scalar("slice_ms", 32, 0, 2000)};
    spec.produces = "pok_partition";
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionCreate));
  }
  {
    ApiSpec spec;
    spec.name = "pok_partition_set_mode";
    spec.subsystem = "kernel";
    spec.doc = "ARINC-653 mode transition (0=idle 1=cold 2=warm 3=normal)";
    spec.args = {ArgSpec::Resource("partition", "pok_partition"),
                 ArgSpec::Flags("mode", {0, 1, 2, 3})};
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionSetMode));
  }
  {
    ApiSpec spec;
    spec.name = "pok_thread_create";
    spec.subsystem = "kernel";
    spec.doc = "create a thread inside a partition (before NORMAL mode)";
    spec.args = {ArgSpec::Resource("partition", "pok_partition"),
                 ArgSpec::Scalar("priority", 32, 0, 300),
                 ArgSpec::Scalar("period_ms", 32, 0, 1000)};
    spec.produces = "pok_thread";
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadCreate));
  }
  {
    ApiSpec spec;
    spec.name = "pok_thread_start";
    spec.subsystem = "kernel";
    spec.doc = "start a thread (partition must be NORMAL)";
    spec.args = {ArgSpec::Resource("thread", "pok_thread")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ThreadStart));
  }
  {
    ApiSpec spec;
    spec.name = "pok_sampling_port_create";
    spec.subsystem = "port";
    spec.doc = "create a sampling port";
    spec.args = {ArgSpec::String("name", {"sp0", "sp1"}),
                 ArgSpec::Scalar("max_size", 32, 0, 2048),
                 ArgSpec::Scalar("is_source", 8, 0, 1),
                 ArgSpec::Scalar("validity_ms", 32, 0, 1000)};
    spec.produces = "pok_sport";
    RETURN_IF_ERROR(table.Register(std::move(spec), SamplingCreate));
  }
  {
    ApiSpec spec;
    spec.name = "pok_sampling_port_write";
    spec.subsystem = "port";
    spec.doc = "publish a sample";
    spec.args = {ArgSpec::Resource("port", "pok_sport"), ArgSpec::Buffer("msg", 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), SamplingWrite));
  }
  {
    ApiSpec spec;
    spec.name = "pok_sampling_port_read";
    spec.subsystem = "port";
    spec.doc = "read the latest sample with validity";
    spec.args = {ArgSpec::Resource("port", "pok_sport")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SamplingRead));
  }
  {
    ApiSpec spec;
    spec.name = "pok_queuing_port_create";
    spec.subsystem = "port";
    spec.doc = "create a queuing port";
    spec.args = {ArgSpec::String("name", {"qp0", "qp1"}),
                 ArgSpec::Scalar("max_size", 32, 0, 2048),
                 ArgSpec::Scalar("depth", 32, 0, 64), ArgSpec::Scalar("is_source", 8, 0, 1)};
    spec.produces = "pok_qport";
    RETURN_IF_ERROR(table.Register(std::move(spec), QueuingCreate));
  }
  {
    ApiSpec spec;
    spec.name = "pok_queuing_port_send";
    spec.subsystem = "port";
    spec.doc = "enqueue a message";
    spec.args = {ArgSpec::Resource("port", "pok_qport"), ArgSpec::Buffer("msg", 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueuingSend));
  }
  {
    ApiSpec spec;
    spec.name = "pok_queuing_port_receive";
    spec.subsystem = "port";
    spec.doc = "dequeue a message";
    spec.args = {ArgSpec::Resource("port", "pok_qport")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueuingReceive));
  }
  {
    ApiSpec spec;
    spec.name = "pok_time_get";
    spec.subsystem = "kernel";
    spec.doc = "milliseconds since boot";
    RETURN_IF_ERROR(table.Register(std::move(spec), TimeGet));
  }
  {
    ApiSpec spec;
    spec.name = "pok_thread_sleep";
    spec.subsystem = "kernel";
    spec.doc = "sleep the calling thread";
    spec.args = {ArgSpec::Scalar("ms", 32, 0, 1000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), TimedWait));
  }
  return OkStatus();
}

}  // namespace

const ApiTable<PokState>& PokOs::Apis() {
  // Built once per process, by whichever boot first needs it.
  static const ApiTable<PokState> table = BuildApiTable<PokState>("PoKOS", {RegisterPokApis});
  return table;
}

Status PokOs::Init(KernelContext& ctx) {
  EOF_COV(ctx);
  ctx.ConsumeCycles(kApiBaseCycles * 4);
  ctx.LogLine("POK kernel (EOF sim) initialising on " + ctx.env().spec().name);
  return OkStatus();
}

OsFootprint PokOs::footprint() const {
  OsFootprint footprint;
  footprint.base_image_bytes = 1400 * 1024;
  footprint.edge_sites = 5200;
  return footprint;
}

std::vector<std::pair<std::string, uint64_t>> PokOs::modules() const {
  return {{"pokos/kernel", 2048}};
}

void PokOs::Tick(KernelContext& ctx) {
  ++state_.tick_ms;
  ctx.ConsumeCycles(kTickCycles);
}

Status RegisterPokOs() {
  OsInfo info;
  info.name = "pokos";
  info.factory = [] { return std::make_unique<PokOs>(); };
  info.supported_archs = {Arch::kArm, Arch::kRiscV};
  info.default_board = "hifive1-revb";
  info.description = "POK-like ARINC-653 kernel: partitions, sampling/queuing ports, "
                     "partition-scoped threads";
  return OsRegistry::Instance().Register(std::move(info));
}

}  // namespace pokos
}  // namespace eof
