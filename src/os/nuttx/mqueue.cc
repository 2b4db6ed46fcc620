// POSIX message queues.
//
// ── Bug #16 (Table 2): NuttX / MQueue / Kernel Panic / nxmq_timedsend() ──
// The priority-ordered insert in nxmq_timedsend() indexes a 32-entry priority bitmap.
// On a full queue, the blocking path first records the waiter under the message priority;
// priorities above 31 index past the bitmap into the wait-queue head — kernel panic when
// the record is linked. Needs a full queue (maxmsg-deep fill staircase) plus an
// out-of-range priority; the absolute-timeout wait needs the hardware timer.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/mqueue");

constexpr uint32_t MQ_PRIO_MAX_ = 32;

int64_t MqOpen(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  uint32_t maxmsg = static_cast<uint32_t>(args[1].scalar);
  uint32_t msgsize = static_cast<uint32_t>(args[2].scalar);
  if (name.empty() || name[0] != '/') {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (maxmsg == 0 || maxmsg > 16 || msgsize == 0 || msgsize > 512) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (!ctx.ReserveRam(static_cast<uint64_t>(maxmsg) * msgsize + 96).ok()) {
    EOF_COV(ctx);
    return ENOMEM_;
  }
  MsgQueue queue;
  queue.name = name;
  queue.maxmsg = maxmsg;
  queue.msgsize = msgsize;
  int64_t handle = state.mqueues.Insert(std::move(queue));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(static_cast<uint64_t>(maxmsg) * msgsize + 96);
    return ENOMEM_;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t MqSend(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  MsgQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr || !queue->open) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  const std::vector<uint8_t>& msg = args[1].bytes;
  if (msg.size() > queue->msgsize) {
    EOF_COV(ctx);
    return EMSGSIZE_;
  }
  if (queue->msgs.size() >= queue->maxmsg) {
    EOF_COV(ctx);
    return EAGAIN_;  // non-blocking send on a full queue
  }
  // Fill staircase toward the bug-#16 precondition.
  if (queue->msgs.size() + 1 == queue->maxmsg / 2) {
    EOF_COV(ctx);
  }
  if (queue->msgs.size() + 1 == queue->maxmsg) {
    EOF_COV(ctx);  // queue now full
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, queue->msgs.size());
  if (ctx.HasPeripheral(Peripheral::kHwTimer)) {
    EOF_COV_BUCKET(ctx, CovSizeClass(msg.size()) + 12);  // timestamped enqueue rows
  }
  ctx.ConsumeCycles(kCopyPerByteCycles * msg.size());
  queue->msgs.push_back(msg);
  return OK_;
}

int64_t NxmqTimedsend(KernelContext& ctx, NuttxState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  MsgQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr || !queue->open) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  const std::vector<uint8_t>& msg = args[1].bytes;
  uint32_t prio = static_cast<uint32_t>(args[2].scalar);
  uint64_t timeout_ms = args[3].scalar;
  if (msg.size() > queue->msgsize) {
    EOF_COV(ctx);
    return EMSGSIZE_;
  }
  if (queue->msgs.size() < queue->maxmsg) {
    EOF_COV(ctx);
    ctx.ConsumeCycles(kCopyPerByteCycles * msg.size());
    // Priority insert: higher-priority messages jump the line.
    if (prio >= MQ_PRIO_MAX_ / 2 && !queue->msgs.empty()) {
      EOF_COV(ctx);
      queue->msgs.push_front(msg);
    } else {
      queue->msgs.push_back(msg);
    }
    return OK_;
  }
  // Full queue: blocking path.
  if (timeout_ms == 0) {
    EOF_COV(ctx);
    return EAGAIN_;
  }
  if (!ctx.HasPeripheral(Peripheral::kHwTimer)) {
    EOF_COV(ctx);
    return ETIMEDOUT_;  // no absolute-timeout source
  }
  if (queue->maxmsg < 8) {
    EOF_COV(ctx);
    ctx.ConsumeCycles(kContextSwitchCycles);
    return ETIMEDOUT_;  // small queues park on the static wait slot, no bitmap index
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, prio / 4);  // priority-band rows of the waiter bitmap walk
  if (prio >= MQ_PRIO_MAX_) {
    EOF_COV(ctx);
    // BUG #16: waiter record indexed past the 32-entry priority bitmap.
    ctx.Panic(StrFormat("up_assert: PANIC! nxmq_timedsend: prio %u overruns wait bitmap",
                        prio),
              "Stack frames at BUG:\n"
              " Level 1: mq_timedsend.c : nxmq_timedsend : 387\n"
              " Level 2: agent : execute_one");
  }
  ctx.ConsumeCycles(kContextSwitchCycles);
  return ETIMEDOUT_;  // the wait would expire; agent context never blocks for real
}

int64_t MqReceive(KernelContext& ctx, NuttxState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  MsgQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr || !queue->open) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  if (queue->msgs.empty()) {
    EOF_COV(ctx);
    return EAGAIN_;
  }
  EOF_COV(ctx);
  int64_t size = static_cast<int64_t>(queue->msgs.front().size());
  ctx.ConsumeCycles(kCopyPerByteCycles * static_cast<uint64_t>(size));
  queue->msgs.pop_front();
  return size;
}

int64_t MqClose(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  MsgQueue* queue = state.mqueues.Find(handle);
  if (queue == nullptr) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(static_cast<uint64_t>(queue->maxmsg) * queue->msgsize + 96);
  state.mqueues.Remove(handle);
  return OK_;
}

}  // namespace

Status RegisterMqApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "mq_open";
    spec.subsystem = "mqueue";
    spec.doc = "open/create a POSIX message queue";
    spec.args = {ArgSpec::String("name", {"/mq0", "/mq1", "/ctrl"}),
                 ArgSpec::Scalar("maxmsg", 32, 0, 32), ArgSpec::Scalar("msgsize", 32, 0, 1024)};
    spec.produces = "nx_mq";
    RETURN_IF_ERROR(table.Register(std::move(spec), MqOpen));
  }
  {
    ApiSpec spec;
    spec.name = "mq_send";
    spec.subsystem = "mqueue";
    spec.doc = "non-blocking send";
    spec.args = {ArgSpec::Resource("mq", "nx_mq"), ArgSpec::Buffer("msg", 0, 512)};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqSend));
  }
  {
    ApiSpec spec;
    spec.name = "nxmq_timedsend";
    spec.subsystem = "mqueue";
    spec.doc = "send with priority and absolute timeout";
    spec.args = {ArgSpec::Resource("mq", "nx_mq"), ArgSpec::Buffer("msg", 0, 512),
                 ArgSpec::Scalar("prio", 32, 0, 64),
                 ArgSpec::Scalar("timeout_ms", 32, 0, 1000)};
    RETURN_IF_ERROR(table.Register(std::move(spec), NxmqTimedsend));
  }
  {
    ApiSpec spec;
    spec.name = "mq_receive";
    spec.subsystem = "mqueue";
    spec.doc = "non-blocking receive";
    spec.args = {ArgSpec::Resource("mq", "nx_mq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqReceive));
  }
  {
    ApiSpec spec;
    spec.name = "mq_close";
    spec.subsystem = "mqueue";
    spec.doc = "close a message queue";
    spec.args = {ArgSpec::Resource("mq", "nx_mq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqClose));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
