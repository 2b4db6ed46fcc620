// IPC: events, semaphores, mailboxes (ipc.c semantics).
//
// ── Bug #10 (Table 2): RT-Thread / IPC / Kernel Panic / rt_event_send() ──
// rt_event_recv with RT_EVENT_FLAG_CLEAR queues a waiter record. rt_event_send walks the
// waiter list resuming every satisfied waiter; when one send satisfies three or more
// waiters at once, the resume loop unlinks a node it already unlinked and follows a freed
// pointer — a kernel panic. Needs an armed three-deep waiter list, i.e. a call sequence a
// random generator virtually never stacks up, but a coverage-guided one climbs via the
// waiter-count edges. The waiter timeout machinery runs off the hardware timer, so the
// arming path is closed on emulated boards.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/ipc");

constexpr uint8_t RT_EVENT_FLAG_AND = 0x01;
constexpr uint8_t RT_EVENT_FLAG_OR = 0x02;
constexpr uint8_t RT_EVENT_FLAG_CLEAR = 0x04;

int64_t MakeIpcObject(KernelContext& ctx, RtThreadState& state, ObjectClass type,
                      const std::string& name) {
  RtObject object;
  object.name = name.substr(0, 8);
  object.type = type;
  int64_t handle = state.objects.Insert(std::move(object));
  if (handle == 0) {
    EOF_COV(ctx);
  }
  return handle;
}

int64_t EventCreate(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.ReserveRam(64).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Event event;
  event.object = MakeIpcObject(ctx, state, ObjectClass::kEvent, args[0].AsString());
  int64_t handle = state.events.Insert(std::move(event));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(64);
  }
  return handle;
}

int64_t EventSend(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Event* event = state.events.Find(static_cast<int64_t>(args[0].scalar));
  if (event == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  uint32_t set = static_cast<uint32_t>(args[1].scalar);
  if (set == 0) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  event->set |= set;
  // Walk the waiter list, resuming satisfied waiters.
  uint32_t resumed = 0;
  for (size_t i = 0; i < event->waiters.size();) {
    ctx.ConsumeCycles(kListOpCycles * 2);
    const Event::Waiter& waiter = event->waiters[i];
    bool satisfied = (waiter.option & RT_EVENT_FLAG_AND) != 0
                         ? (event->set & waiter.pattern) == waiter.pattern
                         : (event->set & waiter.pattern) != 0;
    if (!satisfied) {
      ++i;
      continue;
    }
    EOF_COV(ctx);
    ++resumed;
    if (resumed == 2) {
      EOF_COV(ctx);  // double-resume path: second unlink in one pass
    }
    if (resumed >= 3) {
      EOF_COV(ctx);
      // BUG #10: the third unlink in a single send pass follows a node freed by the
      // second one.
      ctx.Panic("BUG: kernel panic - rt_event_send: resumed thread list corrupt",
                "Stack frames at BUG:\n"
                " Level 1: ipc.c : rt_event_send : 1203\n"
                " Level 2: agent : execute_one");
    }
    if ((waiter.option & RT_EVENT_FLAG_CLEAR) != 0) {
      event->set &= ~waiter.pattern;
    }
    event->waiters.erase(event->waiters.begin() + static_cast<std::ptrdiff_t>(i));
    ctx.ConsumeCycles(kContextSwitchCycles);
  }
  return RT_EOK;
}

int64_t EventRecv(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Event* event = state.events.Find(static_cast<int64_t>(args[0].scalar));
  if (event == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  uint32_t pattern = static_cast<uint32_t>(args[1].scalar);
  uint8_t option = static_cast<uint8_t>(args[2].scalar);
  if (pattern == 0) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if ((option & (RT_EVENT_FLAG_AND | RT_EVENT_FLAG_OR)) == 0) {
    EOF_COV(ctx);
    return RT_EINVAL;  // must pick a combine mode
  }
  bool satisfied = (option & RT_EVENT_FLAG_AND) != 0
                       ? (event->set & pattern) == pattern
                       : (event->set & pattern) != 0;
  if (satisfied) {
    EOF_COV(ctx);
    if ((option & RT_EVENT_FLAG_CLEAR) != 0) {
      EOF_COV(ctx);
      event->set &= ~pattern;
    }
    return RT_EOK;
  }
  // Unsatisfied: queue a waiter (the thread would block). Waiter timeouts are programmed
  // on the hardware timer; without one the kernel refuses to arm the waiter.
  if (!ctx.HasPeripheral(Peripheral::kHwTimer)) {
    EOF_COV(ctx);
    return RT_ETIMEOUT;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, event->waiters.size());
  if (event->waiters.size() == 1) {
    EOF_COV(ctx);  // first -> second waiter transition
  }
  if (event->waiters.size() == 2) {
    EOF_COV(ctx);  // second -> third waiter transition (the staircase to bug #10)
  }
  event->waiters.push_back(Event::Waiter{pattern, option});
  return RT_ETIMEOUT;
}

int64_t EventDelete(KernelContext& ctx, RtThreadState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  Event* event = state.events.Find(handle);
  if (event == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  state.objects.Remove(event->object);
  state.events.Remove(handle);
  ctx.ReleaseRam(64);
  return RT_EOK;
}

int64_t SemCreate(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t value = static_cast<uint32_t>(args[1].scalar);
  if (value > 65535) {
    EOF_COV(ctx);
    return 0;  // sem value is 16-bit
  }
  if (!ctx.ReserveRam(48).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Semaphore sem;
  sem.object = MakeIpcObject(ctx, state, ObjectClass::kSemaphore, args[0].AsString());
  sem.value = value;
  int64_t handle = state.semaphores.Insert(std::move(sem));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(48);
  }
  return handle;
}

int64_t SemTake(KernelContext& ctx, RtThreadState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Semaphore* sem = state.semaphores.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (sem->value == 0) {
    EOF_COV(ctx);
    return RT_ETIMEOUT;  // zero wait in agent context
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(sem->value));
  --sem->value;
  return RT_EOK;
}

int64_t SemRelease(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Semaphore* sem = state.semaphores.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (sem->value >= sem->max_value) {
    EOF_COV(ctx);
    return RT_EFULL;
  }
  EOF_COV(ctx);
  ++sem->value;
  return RT_EOK;
}

int64_t SemDelete(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  Semaphore* sem = state.semaphores.Find(handle);
  if (sem == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  state.objects.Remove(sem->object);
  state.semaphores.Remove(handle);
  ctx.ReleaseRam(48);
  return RT_EOK;
}

int64_t MbCreate(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t size = static_cast<uint32_t>(args[1].scalar);
  if (size == 0 || size > 256) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(size * 8 + 48).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Mailbox mailbox;
  mailbox.object = MakeIpcObject(ctx, state, ObjectClass::kMailBox, args[0].AsString());
  mailbox.capacity = size;
  int64_t handle = state.mailboxes.Insert(std::move(mailbox));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(size * 8 + 48);
  }
  return handle;
}

int64_t MbSend(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Mailbox* mailbox = state.mailboxes.Find(static_cast<int64_t>(args[0].scalar));
  if (mailbox == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (mailbox->mails.size() >= mailbox->capacity) {
    EOF_COV(ctx);
    return RT_EFULL;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, mailbox->mails.size());
  mailbox->mails.push_back(args[1].scalar);
  return RT_EOK;
}

int64_t MbRecv(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Mailbox* mailbox = state.mailboxes.Find(static_cast<int64_t>(args[0].scalar));
  if (mailbox == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (mailbox->mails.empty()) {
    EOF_COV(ctx);
    return RT_ETIMEOUT;
  }
  EOF_COV(ctx);
  int64_t value = static_cast<int64_t>(mailbox->mails.front());
  mailbox->mails.pop_front();
  return value;
}

int64_t MqCreate(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t msg_size = static_cast<uint32_t>(args[1].scalar);
  uint32_t max_msgs = static_cast<uint32_t>(args[2].scalar);
  if (msg_size == 0 || msg_size > 256) {
    EOF_COV(ctx);
    return 0;
  }
  if (max_msgs == 0 || max_msgs > 32) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(static_cast<uint64_t>(msg_size + 8) * max_msgs + 64).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  RtMessageQueue queue;
  queue.object = MakeIpcObject(ctx, state, ObjectClass::kMessageQueue, args[0].AsString());
  queue.msg_size = msg_size;
  queue.max_msgs = max_msgs;
  int64_t handle = state.mqueues.Insert(std::move(queue));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(static_cast<uint64_t>(msg_size + 8) * max_msgs + 64);
  }
  return handle;
}

int64_t MqSend(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  RtMessageQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  const std::vector<uint8_t>& payload = args[1].bytes;
  if (payload.size() > queue->msg_size) {
    EOF_COV(ctx);
    return RT_ERROR;  // rt_mq_send rejects oversized messages
  }
  if (queue->msgs.size() >= queue->max_msgs) {
    EOF_COV(ctx);
    return RT_EFULL;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, queue->msgs.size());  // absolute fill depth
  ctx.ConsumeCycles(kCopyPerByteCycles * payload.size());
  queue->msgs.push_back(payload);
  return RT_EOK;
}

int64_t MqUrgent(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  RtMessageQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  const std::vector<uint8_t>& payload = args[1].bytes;
  if (payload.size() > queue->msg_size || queue->msgs.size() >= queue->max_msgs) {
    EOF_COV(ctx);
    return RT_EFULL;
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * payload.size());
  queue->msgs.push_front(payload);  // urgent messages jump the line
  return RT_EOK;
}

int64_t MqRecv(KernelContext& ctx, RtThreadState& state,
               const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  RtMessageQueue* queue = state.mqueues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (queue->msgs.empty()) {
    EOF_COV(ctx);
    return RT_ETIMEOUT;
  }
  EOF_COV(ctx);
  int64_t size = static_cast<int64_t>(queue->msgs.front().size());
  ctx.ConsumeCycles(kCopyPerByteCycles * static_cast<uint64_t>(size));
  queue->msgs.pop_front();
  return size;
}

int64_t MqDelete(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  RtMessageQueue* queue = state.mqueues.Find(handle);
  if (queue == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(static_cast<uint64_t>(queue->msg_size + 8) * queue->max_msgs + 64);
  state.objects.Remove(queue->object);
  state.mqueues.Remove(handle);
  return RT_EOK;
}

}  // namespace

Status RegisterIpcApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_event_create";
    spec.subsystem = "ipc";
    spec.doc = "create an event object";
    spec.args = {ArgSpec::String("name", {"evt0", "evt1"})};
    spec.produces = "rt_event";
    RETURN_IF_ERROR(table.Register(std::move(spec), EventCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_event_send";
    spec.subsystem = "ipc";
    spec.doc = "set event bits and resume satisfied waiters";
    spec.args = {ArgSpec::Resource("event", "rt_event"),
                 ArgSpec::Scalar("set", 32, 0, UINT32_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventSend));
  }
  {
    ApiSpec spec;
    spec.name = "rt_event_recv";
    spec.subsystem = "ipc";
    spec.doc = "receive event bits (AND=1/OR=2 | CLEAR=4 options)";
    spec.args = {ArgSpec::Resource("event", "rt_event"),
                 ArgSpec::Scalar("pattern", 32, 0, UINT32_MAX),
                 ArgSpec::Flags("option", {1, 2, 3, 5, 6, 7}, /*combinable=*/false)};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventRecv));
  }
  {
    ApiSpec spec;
    spec.name = "rt_event_delete";
    spec.subsystem = "ipc";
    spec.doc = "destroy an event object";
    spec.args = {ArgSpec::Resource("event", "rt_event")};
    RETURN_IF_ERROR(table.Register(std::move(spec), EventDelete));
  }
  {
    ApiSpec spec;
    spec.name = "rt_sem_create";
    spec.subsystem = "ipc";
    spec.doc = "create a semaphore";
    spec.args = {ArgSpec::String("name", {"sem0", "sem1"}),
                 ArgSpec::Scalar("value", 32, 0, 70000)};
    spec.produces = "rt_sem";
    RETURN_IF_ERROR(table.Register(std::move(spec), SemCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_sem_take";
    spec.subsystem = "ipc";
    spec.doc = "take a semaphore (zero wait)";
    spec.args = {ArgSpec::Resource("sem", "rt_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemTake));
  }
  {
    ApiSpec spec;
    spec.name = "rt_sem_release";
    spec.subsystem = "ipc";
    spec.doc = "release a semaphore";
    spec.args = {ArgSpec::Resource("sem", "rt_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemRelease));
  }
  {
    ApiSpec spec;
    spec.name = "rt_sem_delete";
    spec.subsystem = "ipc";
    spec.doc = "destroy a semaphore";
    spec.args = {ArgSpec::Resource("sem", "rt_sem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemDelete));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mq_create";
    spec.subsystem = "ipc";
    spec.doc = "create a message queue (msg size, depth)";
    spec.args = {ArgSpec::String("name", {"mq0", "mq1"}),
                 ArgSpec::Scalar("msg_size", 32, 0, 512),
                 ArgSpec::Scalar("max_msgs", 32, 0, 64)};
    spec.produces = "rt_mq";
    RETURN_IF_ERROR(table.Register(std::move(spec), MqCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mq_send";
    spec.subsystem = "ipc";
    spec.doc = "enqueue a message";
    spec.args = {ArgSpec::Resource("mq", "rt_mq"), ArgSpec::Buffer("msg", 0, 256)};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqSend));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mq_urgent";
    spec.subsystem = "ipc";
    spec.doc = "enqueue a message at the head";
    spec.args = {ArgSpec::Resource("mq", "rt_mq"), ArgSpec::Buffer("msg", 0, 256)};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqUrgent));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mq_recv";
    spec.subsystem = "ipc";
    spec.doc = "dequeue a message (zero wait)";
    spec.args = {ArgSpec::Resource("mq", "rt_mq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqRecv));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mq_delete";
    spec.subsystem = "ipc";
    spec.doc = "destroy a message queue";
    spec.args = {ArgSpec::Resource("mq", "rt_mq")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MqDelete));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mb_create";
    spec.subsystem = "ipc";
    spec.doc = "create a mailbox of N 64-bit mails";
    spec.args = {ArgSpec::String("name", {"mb0", "mb1"}), ArgSpec::Scalar("size", 32, 0, 512)};
    spec.produces = "rt_mailbox";
    RETURN_IF_ERROR(table.Register(std::move(spec), MbCreate));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mb_send";
    spec.subsystem = "ipc";
    spec.doc = "post a mail";
    spec.args = {ArgSpec::Resource("mb", "rt_mailbox"),
                 ArgSpec::Scalar("value", 64, 0, UINT64_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), MbSend));
  }
  {
    ApiSpec spec;
    spec.name = "rt_mb_recv";
    spec.subsystem = "ipc";
    spec.doc = "fetch a mail (zero wait)";
    spec.args = {ArgSpec::Resource("mb", "rt_mailbox")};
    RETURN_IF_ERROR(table.Register(std::move(spec), MbRecv));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
