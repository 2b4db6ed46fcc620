// Kernel state of the FreeRTOS-like target. One instance lives inside FreeRtosOs and is
// shared by the per-subsystem implementation files; it dies with the boot.

#ifndef SRC_OS_FREERTOS_STATE_H_
#define SRC_OS_FREERTOS_STATE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/apps/apps_state.h"
#include "src/kernel/handle_table.h"

namespace eof {
namespace freertos {

// FreeRTOS-style status codes.
inline constexpr int64_t pdPASS = 1;
inline constexpr int64_t pdFAIL = 0;
inline constexpr int64_t errQUEUE_FULL = -1;
inline constexpr int64_t errQUEUE_EMPTY = -2;
inline constexpr int64_t errCOULD_NOT_ALLOCATE_REQUIRED_MEMORY = -3;
inline constexpr uint64_t portMAX_DELAY = 0xffffffffULL;

enum class TaskState : uint8_t { kReady, kRunning, kBlocked, kSuspended, kDeleted };

struct Tcb {
  std::string name;
  uint32_t priority = 0;
  uint32_t stack_words = 0;
  TaskState state = TaskState::kReady;
  uint32_t notify_value = 0;
  bool notify_pending = false;
  uint64_t run_ticks = 0;
};

struct Queue {
  uint32_t length = 0;      // max items
  uint32_t item_size = 0;   // bytes per item
  std::deque<std::vector<uint8_t>> items;
  // FreeRTOS implements semaphores and mutexes as queues; this mirrors that.
  bool is_semaphore = false;
  bool is_mutex = false;
  uint32_t sem_count = 0;   // current count for semaphore queues
  uint32_t sem_max = 0;
  int64_t mutex_holder = 0;  // task handle holding the mutex (0 = free)
  uint32_t recursion = 0;
};

struct EventGroup {
  uint32_t bits = 0;
};

struct SwTimer {
  std::string name;
  uint64_t period_ticks = 0;
  bool autoreload = false;
  bool active = false;
  uint64_t expiry_tick = 0;
  uint32_t fire_count = 0;
};

struct StreamBuffer {
  uint64_t capacity = 0;
  uint64_t trigger_level = 0;
  std::deque<uint8_t> data;
};

// heap_4-style block list over a virtual arena (offsets, not host memory).
struct HeapBlock {
  uint64_t offset = 0;
  uint64_t size = 0;
  bool free = true;
};

struct Heap4 {
  uint64_t arena_size = 0;
  std::vector<HeapBlock> blocks;  // sorted by offset, adjacent-free coalesced
  uint64_t free_bytes = 0;
  uint64_t min_ever_free = 0;
  uint64_t alloc_count = 0;
};

struct FreeRtosState {
  HandleTable<Tcb> tasks{64};
  HandleTable<Queue> queues{128};
  HandleTable<EventGroup> event_groups{64};
  HandleTable<SwTimer> timers{64};
  HandleTable<StreamBuffer> stream_buffers{64};
  Heap4 heap;
  HandleTable<uint64_t> heap_allocs{256};  // handle -> arena offset

  uint64_t tick_count = 0;
  bool scheduler_running = false;

  // ISR-side state (peripheral event injection, the §6 extension).
  std::deque<uint8_t> uart_rx_ring;   // serial RX ISR fills; capacity 64
  uint32_t uart_rx_overruns = 0;
  uint32_t gpio_edge_count[4] = {0, 0, 0, 0};
  uint32_t spurious_irq_count = 0;

  // ESP-IDF-style partition registry state (bug #13 lives here).
  struct PartitionSlot {
    std::string label;
    uint64_t flash_offset = 0;
    uint64_t size = 0;
    bool loaded = false;
  };
  std::vector<PartitionSlot> partition_slots;

  // The application layer (HTTP server + JSON component) ships in the same firmware;
  // Table 4 confines instrumentation and generation to these modules.
  apps::AppsState apps;
};

}  // namespace freertos
}  // namespace eof

#endif  // SRC_OS_FREERTOS_STATE_H_
