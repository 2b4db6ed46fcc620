// Queues, binary/counting semaphores and mutexes. As in real FreeRTOS, the semaphore and
// mutex APIs are thin layers over the queue machinery, so their state shares struct Queue.

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/queue");

int64_t QueueCreate(KernelContext& ctx, FreeRtosState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t length = static_cast<uint32_t>(args[0].scalar);
  uint32_t item_size = static_cast<uint32_t>(args[1].scalar);
  if (length == 0) {
    EOF_COV(ctx);
    return 0;  // NULL
  }
  uint64_t storage = static_cast<uint64_t>(length) * item_size + 96;
  if (!ctx.ReserveRam(storage).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Queue queue;
  queue.length = length;
  queue.item_size = item_size;
  int64_t handle = state.queues.Insert(std::move(queue));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(storage);
    return 0;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t QueueSend(KernelContext& ctx, FreeRtosState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* queue = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr || queue->is_semaphore) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  const std::vector<uint8_t>& payload = args[1].bytes;
  if (queue->items.size() >= queue->length) {
    EOF_COV(ctx);
    return errQUEUE_FULL;  // zero block time in agent context
  }
  EOF_COV_BUCKET(ctx, queue->items.size());  // absolute fill depth
  EOF_COV_BUCKET(ctx, CovSizeClass(queue->item_size));
  std::vector<uint8_t> item(payload.begin(),
                            payload.begin() + static_cast<std::ptrdiff_t>(std::min<size_t>(
                                                  payload.size(), queue->item_size)));
  item.resize(queue->item_size, 0);
  ctx.ConsumeCycles(kCopyPerByteCycles * queue->item_size);
  bool to_front = args[2].scalar != 0;
  if (to_front) {
    EOF_COV(ctx);
    queue->items.push_front(std::move(item));
  } else {
    EOF_COV(ctx);
    queue->items.push_back(std::move(item));
  }
  return pdPASS;
}

int64_t QueueReceive(KernelContext& ctx, FreeRtosState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* queue = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr || queue->is_semaphore) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (queue->items.empty()) {
    EOF_COV(ctx);
    return errQUEUE_EMPTY;
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * queue->item_size);
  queue->items.pop_front();
  return pdPASS;
}

int64_t QueuePeek(KernelContext& ctx, FreeRtosState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* queue = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (queue->items.empty()) {
    EOF_COV(ctx);
    return errQUEUE_EMPTY;
  }
  EOF_COV(ctx);
  return pdPASS;
}

int64_t QueueMessagesWaiting(KernelContext& ctx, FreeRtosState& state,
                             const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  Queue* queue = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  return queue->is_semaphore ? queue->sem_count : static_cast<int64_t>(queue->items.size());
}

int64_t QueueReset(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* queue = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (queue == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  queue->items.clear();
  return pdPASS;
}

int64_t QueueDelete(KernelContext& ctx, FreeRtosState& state,
                    const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  Queue* queue = state.queues.Find(handle);
  if (queue == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(static_cast<uint64_t>(queue->length) * queue->item_size + 96);
  state.queues.Remove(handle);
  return pdPASS;
}

int64_t SemaphoreCreateBinary(KernelContext& ctx, FreeRtosState& state,
                              const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.ReserveRam(96).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Queue sem;
  sem.is_semaphore = true;
  sem.sem_max = 1;
  sem.sem_count = 0;  // binary semaphores start empty
  int64_t handle = state.queues.Insert(std::move(sem));
  if (handle == 0) {
    ctx.ReleaseRam(96);
  }
  return handle;
}

int64_t SemaphoreCreateCounting(KernelContext& ctx, FreeRtosState& state,
                                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint32_t max_count = static_cast<uint32_t>(args[0].scalar);
  uint32_t initial = static_cast<uint32_t>(args[1].scalar);
  if (max_count == 0 || initial > max_count) {
    EOF_COV(ctx);
    return 0;
  }
  if (!ctx.ReserveRam(96).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Queue sem;
  sem.is_semaphore = true;
  sem.sem_max = max_count;
  sem.sem_count = initial;
  int64_t handle = state.queues.Insert(std::move(sem));
  if (handle == 0) {
    ctx.ReleaseRam(96);
  }
  return handle;
}

int64_t SemaphoreCreateMutex(KernelContext& ctx, FreeRtosState& state,
                             const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.ReserveRam(96).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  Queue mutex;
  mutex.is_semaphore = true;
  mutex.is_mutex = true;
  mutex.sem_max = 1;
  mutex.sem_count = 1;  // mutexes start available
  int64_t handle = state.queues.Insert(std::move(mutex));
  if (handle == 0) {
    ctx.ReleaseRam(96);
  }
  return handle;
}

int64_t SemaphoreTake(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* sem = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr || !sem->is_semaphore) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (sem->sem_count == 0) {
    EOF_COV(ctx);
    return pdFAIL;  // would block
  }
  EOF_COV_BUCKET(ctx, CovSizeClass(sem->sem_count));
  --sem->sem_count;
  if (sem->is_mutex) {
    EOF_COV(ctx);
    sem->mutex_holder = 1;  // agent task
    ++sem->recursion;
  }
  return pdPASS;
}

int64_t SemaphoreGive(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Queue* sem = state.queues.Find(static_cast<int64_t>(args[0].scalar));
  if (sem == nullptr || !sem->is_semaphore) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  if (sem->is_mutex && sem->mutex_holder == 0) {
    EOF_COV(ctx);
    return pdFAIL;  // giving a mutex nobody holds
  }
  if (sem->sem_count >= sem->sem_max) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  ++sem->sem_count;
  if (sem->is_mutex && sem->recursion > 0 && --sem->recursion == 0) {
    sem->mutex_holder = 0;
  }
  return pdPASS;
}

}  // namespace

Status RegisterQueueApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "xQueueCreate";
    spec.subsystem = "queue";
    spec.doc = "create a queue of N items of a given size";
    spec.args = {ArgSpec::Scalar("length", 32, 0, 256), ArgSpec::Scalar("item_size", 32, 0, 512)};
    spec.produces = "queue";
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueCreate));
  }
  {
    ApiSpec spec;
    spec.name = "xQueueSend";
    spec.subsystem = "queue";
    spec.doc = "enqueue an item (to_front selects xQueueSendToFront)";
    spec.args = {ArgSpec::Resource("queue", "queue"), ArgSpec::Buffer("item", 0, 512),
                 ArgSpec::Scalar("to_front", 8, 0, 1)};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueSend));
  }
  {
    ApiSpec spec;
    spec.name = "xQueueReceive";
    spec.subsystem = "queue";
    spec.doc = "dequeue an item";
    spec.args = {ArgSpec::Resource("queue", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueReceive));
  }
  {
    ApiSpec spec;
    spec.name = "xQueuePeek";
    spec.subsystem = "queue";
    spec.doc = "peek at the head item without removing it";
    spec.args = {ArgSpec::Resource("queue", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueuePeek));
  }
  {
    ApiSpec spec;
    spec.name = "uxQueueMessagesWaiting";
    spec.subsystem = "queue";
    spec.doc = "number of queued items";
    spec.args = {ArgSpec::Resource("queue", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueMessagesWaiting));
  }
  {
    ApiSpec spec;
    spec.name = "xQueueReset";
    spec.subsystem = "queue";
    spec.doc = "drop all queued items";
    spec.args = {ArgSpec::Resource("queue", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueReset));
  }
  {
    ApiSpec spec;
    spec.name = "vQueueDelete";
    spec.subsystem = "queue";
    spec.doc = "destroy a queue or semaphore";
    spec.args = {ArgSpec::Resource("queue", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), QueueDelete));
  }
  {
    ApiSpec spec;
    spec.name = "xSemaphoreCreateBinary";
    spec.subsystem = "queue";
    spec.doc = "create a binary semaphore (starts empty)";
    spec.produces = "queue";
    RETURN_IF_ERROR(table.Register(std::move(spec), SemaphoreCreateBinary));
  }
  {
    ApiSpec spec;
    spec.name = "xSemaphoreCreateCounting";
    spec.subsystem = "queue";
    spec.doc = "create a counting semaphore";
    spec.args = {ArgSpec::Scalar("max_count", 32, 0, 1024),
                 ArgSpec::Scalar("initial_count", 32, 0, 1024)};
    spec.produces = "queue";
    RETURN_IF_ERROR(table.Register(std::move(spec), SemaphoreCreateCounting));
  }
  {
    ApiSpec spec;
    spec.name = "xSemaphoreCreateMutex";
    spec.subsystem = "queue";
    spec.doc = "create a mutex (priority-inheritance semaphore)";
    spec.produces = "queue";
    RETURN_IF_ERROR(table.Register(std::move(spec), SemaphoreCreateMutex));
  }
  {
    ApiSpec spec;
    spec.name = "xSemaphoreTake";
    spec.subsystem = "queue";
    spec.doc = "take a semaphore or lock a mutex";
    spec.args = {ArgSpec::Resource("sem", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemaphoreTake));
  }
  {
    ApiSpec spec;
    spec.name = "xSemaphoreGive";
    spec.subsystem = "queue";
    spec.doc = "give a semaphore or unlock a mutex";
    spec.args = {ArgSpec::Resource("sem", "queue")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SemaphoreGive));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
