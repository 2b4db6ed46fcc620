// Message queues (k_msgq) and the syz_msgq_roundtrip pseudo-syscall.
//
// ── Bug #2 (Table 2, confirmed): Zephyr / Kernel / Kernel Panic / z_impl_k_msgq_get() ──
// k_msgq_alloc_init() validates msg_size != 0, but applications that initialise a static
// k_msgq with k_msgq_init() bypass that check (the pattern the syz_msgq_roundtrip pseudo-
// syscall reproduces). On a zero-size queue, z_impl_k_msgq_get()'s read-index arithmetic
// divides by msg_size — division fault, kernel panic. Only the LLM-mined pseudo-syscall
// reaches the unvalidated init, so baseline spec sets never see this path.

#include <algorithm>

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/msgq");

// Shared get path (z_impl_k_msgq_get): the ring arithmetic with the msg_size divide.
// The divide sits on the empty-queue index-recompute path, so it needs a drained queue.
int64_t MsgqGetImpl(KernelContext& ctx, Msgq& queue) {
  if (queue.ring.empty()) {
    if (queue.msg_size == 0) {
      EOF_COV(ctx);
      // BUG #2: read-index recompute = used_bytes / msg_size.
      ctx.Panic("FATAL EXCEPTION: divide fault in z_impl_k_msgq_get (msg_size=0)",
                "Stack frames at BUG:\n"
                " Level 1: msg_q.c : z_impl_k_msgq_get : 201\n"
                " Level 2: agent : execute_one");
    }
    EOF_COV(ctx);
    return Z_ENOMSG;
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * queue.msg_size);
  queue.ring.pop_front();
  return Z_OK;
}

int64_t MsgqAllocInit(KernelContext& ctx, ZephyrState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t msg_size = static_cast<uint32_t>(args[0].scalar);
  uint32_t max_msgs = static_cast<uint32_t>(args[1].scalar);
  if (msg_size == 0 || max_msgs == 0) {
    EOF_COV(ctx);
    return Z_EINVAL;  // the alloc path validates
  }
  if (msg_size > 256 || max_msgs > 64) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (!ctx.ReserveRam(static_cast<uint64_t>(msg_size) * max_msgs + 64).ok()) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  Msgq queue;
  queue.msg_size = msg_size;
  queue.max_msgs = max_msgs;
  int64_t handle = state.msgqs.Insert(std::move(queue));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(static_cast<uint64_t>(msg_size) * max_msgs + 64);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t MsgqPut(KernelContext& ctx, ZephyrState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Msgq* queue = state.msgqs.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  if (queue->ring.size() >= queue->max_msgs) {
    EOF_COV(ctx);
    return Z_EAGAIN;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, queue->ring.size());
  EOF_COV_BUCKET(ctx, CovSizeClass(queue->msg_size) + 10);
  const std::vector<uint8_t>& payload = args[1].bytes;
  std::vector<uint8_t> msg(queue->msg_size, 0);
  std::copy_n(payload.begin(),
              std::min<size_t>(payload.size(), queue->msg_size), msg.begin());
  ctx.ConsumeCycles(kCopyPerByteCycles * queue->msg_size);
  queue->ring.push_back(std::move(msg));
  return Z_OK;
}

int64_t MsgqGet(KernelContext& ctx, ZephyrState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Msgq* queue = state.msgqs.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  return MsgqGetImpl(ctx, *queue);
}

int64_t MsgqPurge(KernelContext& ctx, ZephyrState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Msgq* queue = state.msgqs.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  queue->ring.clear();
  return Z_OK;
}

int64_t MsgqNumUsed(KernelContext& ctx, ZephyrState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  Msgq* queue = state.msgqs.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  return static_cast<int64_t>(queue->ring.size());
}

// Pseudo-syscall: static-init a msgq (no validation, as k_msgq_init on a user buffer),
// put `count` messages, then get them back.
int64_t SyzMsgqRoundtrip(KernelContext& ctx, ZephyrState& /*state*/,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t msg_size = static_cast<uint32_t>(args[0].scalar);  // NOT validated (k_msgq_init)
  uint32_t count = static_cast<uint32_t>(std::min<uint64_t>(args[1].scalar, 16));
  if (msg_size > 256) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  Msgq queue;
  queue.msg_size = msg_size;
  queue.max_msgs = 16;
  EOF_COV(ctx);
  for (uint32_t i = 0; i < count; ++i) {
    ctx.ConsumeCycles(kCopyPerByteCycles * (msg_size + 4));
    queue.ring.push_back(std::vector<uint8_t>(msg_size, static_cast<uint8_t>(i)));
  }
  int64_t rc = Z_OK;
  for (uint32_t i = 0; i < count && rc == Z_OK && !queue.ring.empty(); ++i) {
    rc = MsgqGetImpl(ctx, queue);
  }
  // The polling pattern: after a burst of six or more messages the consumer polls once
  // more on the drained queue — the extra get is where a zero msg_size divides.
  if (count >= 6) {
    EOF_COV(ctx);
    rc = MsgqGetImpl(ctx, queue);
  }
  return rc;
}

}  // namespace

Status RegisterMsgqApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "k_msgq_alloc_init";
    spec.subsystem = "msgq";
    spec.doc = "create a message queue (validated alloc path)";
    spec.args = {ArgSpec::Scalar("msg_size", 32, 0, 512),
                 ArgSpec::Scalar("max_msgs", 32, 0, 128)};
    spec.produces = "z_msgq";
    RETURN_IF_ERROR(table.Register(std::move(spec), MsgqAllocInit));
  }
  {
    ApiSpec spec;
    spec.name = "k_msgq_put";
    spec.subsystem = "msgq";
    spec.doc = "enqueue a message";
    spec.args = {ArgSpec::Resource("msgq", "z_msgq"), ArgSpec::Buffer("msg", 0, 256)};
    RETURN_IF_ERROR(table.Register(std::move(spec), MsgqPut));
  }
  {
    ApiSpec spec;
    spec.name = "k_msgq_get";
    spec.subsystem = "msgq";
    spec.doc = "dequeue a message";
    spec.args = {ArgSpec::Resource("msgq", "z_msgq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MsgqGet));
  }
  {
    ApiSpec spec;
    spec.name = "k_msgq_purge";
    spec.subsystem = "msgq";
    spec.doc = "drop all queued messages";
    spec.args = {ArgSpec::Resource("msgq", "z_msgq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MsgqPurge));
  }
  {
    ApiSpec spec;
    spec.name = "k_msgq_num_used_get";
    spec.subsystem = "msgq";
    spec.doc = "number of queued messages";
    spec.args = {ArgSpec::Resource("msgq", "z_msgq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MsgqNumUsed));
  }
  {
    ApiSpec spec;
    spec.name = "syz_msgq_roundtrip";
    spec.subsystem = "msgq";
    spec.doc = "static k_msgq_init + put/get roundtrip (application pattern)";
    spec.args = {ArgSpec::Scalar("msg_size", 32, 0, 256), ArgSpec::Scalar("count", 32, 0, 32)};
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SyzMsgqRoundtrip));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
