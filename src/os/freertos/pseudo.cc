// Pseudo-syscalls: multi-API sequences behind one entry point, the Syzkaller idiom the
// paper adopts for behaviours plain Syzlang cannot express (§4.5, Figure 6). These are
// extended-tier specs — products of the LLM/miner pass, absent from baseline spec sets.

#include <algorithm>
#include <vector>

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/pseudo");

// Creates a queue and a set of worker tasks, then pushes work items through the queue —
// the producer/consumer skeleton most FreeRTOS applications are built on.
int64_t SyzWorkerPipeline(KernelContext& ctx, FreeRtosState& state,
                          const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  // Clamps mirror the declared ArgSpec maxima: values beyond them come only from
  // wild/interesting scalars, which probe past the constraint on purpose.
  uint64_t workers = std::min<uint64_t>(args[0].scalar, 16);
  uint64_t items = std::min<uint64_t>(args[1].scalar, 64);
  if (workers == 0) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  Queue queue;
  queue.length = static_cast<uint32_t>(items == 0 ? 1 : items);
  queue.item_size = 16;
  if (!ctx.ReserveRam(queue.length * 16 + 96).ok()) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  int64_t queue_handle = state.queues.Insert(std::move(queue));
  if (queue_handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(16 * (items == 0 ? 1 : items) + 96);
    return pdFAIL;
  }
  uint64_t spawned = 0;
  std::vector<int64_t> worker_handles;
  for (uint64_t i = 0; i < workers; ++i) {
    ctx.ConsumeCycles(kContextSwitchCycles);
    Tcb tcb;
    tcb.name = "syz_worker";
    tcb.priority = 5;
    tcb.stack_words = 256;
    if (!ctx.ReserveRam(256 * 4 + 128).ok()) {
      EOF_COV(ctx);
      break;
    }
    int64_t worker_handle = state.tasks.Insert(std::move(tcb));
    if (worker_handle == 0) {
      EOF_COV(ctx);
      ctx.ReleaseRam(256 * 4 + 128);
      break;
    }
    worker_handles.push_back(worker_handle);
    ++spawned;
  }
  Queue* q = state.queues.Find(queue_handle);
  for (uint64_t i = 0; i < items && q != nullptr; ++i) {
    ctx.ConsumeCycles(kCopyPerByteCycles * 16);
    if (q->items.size() < q->length) {
      EOF_COV(ctx);
      q->items.push_back(std::vector<uint8_t>(16, static_cast<uint8_t>(i)));
    }
    if (!q->items.empty() && (i % 2) == 1) {
      EOF_COV(ctx);
      q->items.pop_front();  // a worker drains
      ctx.ConsumeCycles(kContextSwitchCycles);
    }
  }
  // Pipeline drained: the workers exit and the queue is deleted. Pseudo-calls tear
  // down their transient objects so repeated calls exercise the same paths instead
  // of wedging the tiny boards on leaked stacks.
  for (int64_t worker_handle : worker_handles) {
    ctx.ConsumeCycles(kContextSwitchCycles);
    state.tasks.Remove(worker_handle);
    ctx.ReleaseRam(256 * 4 + 128);
  }
  state.queues.Remove(queue_handle);
  ctx.ReleaseRam(16 * (items == 0 ? 1 : items) + 96);
  EOF_COV(ctx);
  return static_cast<int64_t>(spawned);
}

// Binary-semaphore ping-pong between two logical tasks, with priority churn.
int64_t SyzSemPingpong(KernelContext& ctx, FreeRtosState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t rounds = std::min<uint64_t>(args[0].scalar, 512);  // the declared ArgSpec max
  if (!ctx.ReserveRam(96).ok()) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  Queue sem;
  sem.is_semaphore = true;
  sem.sem_max = 1;
  sem.sem_count = 1;
  int64_t handle = state.queues.Insert(std::move(sem));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(96);
    return pdFAIL;
  }
  Queue* s = state.queues.Find(handle);
  uint64_t exchanged = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    ctx.ConsumeCycles(kContextSwitchCycles);
    if (s->sem_count > 0) {
      EOF_COV(ctx);
      --s->sem_count;  // take
      ++s->sem_count;  // give back from the peer
      ++exchanged;
    } else {
      EOF_COV(ctx);
      break;
    }
  }
  state.queues.Remove(handle);
  ctx.ReleaseRam(96);
  return static_cast<int64_t>(exchanged);
}

// Creates a burst of auto-reload timers and advances ticks so several fire.
int64_t SyzTimerBurst(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t count = std::min<uint64_t>(args[0].scalar, 32);  // the declared ArgSpec max
  uint64_t period = args[1].scalar;
  if (period == 0 || count == 0) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  uint64_t created = 0;
  std::vector<int64_t> timer_handles;
  for (uint64_t i = 0; i < count; ++i) {
    if (!ctx.ReserveRam(64).ok()) {
      EOF_COV(ctx);
      break;
    }
    SwTimer timer;
    timer.name = "syz_burst";
    timer.period_ticks = period;
    timer.autoreload = true;
    timer.active = true;
    timer.expiry_tick = state.tick_count + period;
    int64_t timer_handle = state.timers.Insert(std::move(timer));
    if (timer_handle == 0) {
      EOF_COV(ctx);
      ctx.ReleaseRam(64);
      break;
    }
    timer_handles.push_back(timer_handle);
    ++created;
  }
  EOF_COV(ctx);
  state.tick_count += period * 2;
  TimersOnTick(ctx, state);
  // Burst observed: delete the timers again (xTimerDelete on each) — transient
  // pseudo-call objects must not outlive the call on RAM-starved boards.
  for (int64_t timer_handle : timer_handles) {
    state.timers.Remove(timer_handle);
    ctx.ReleaseRam(64);
  }
  return static_cast<int64_t>(created);
}

}  // namespace

Status RegisterPseudoApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "syz_worker_pipeline";
    spec.subsystem = "pseudo";
    spec.doc = "queue + worker-task producer/consumer pipeline";
    spec.args = {ArgSpec::Scalar("workers", 32, 0, 16), ArgSpec::Scalar("items", 32, 0, 64)};
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SyzWorkerPipeline));
  }
  {
    ApiSpec spec;
    spec.name = "syz_sem_pingpong";
    spec.subsystem = "pseudo";
    spec.doc = "binary-semaphore ping-pong rounds";
    spec.args = {ArgSpec::Scalar("rounds", 32, 0, 512)};
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SyzSemPingpong));
  }
  {
    ApiSpec spec;
    spec.name = "syz_timer_burst";
    spec.subsystem = "pseudo";
    spec.doc = "auto-reload timer burst with tick advance";
    spec.args = {ArgSpec::Scalar("count", 32, 0, 32), ArgSpec::Scalar("period", 32, 0, 100)};
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SyzTimerBurst));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
