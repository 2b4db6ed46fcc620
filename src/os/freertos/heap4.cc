// heap_4-style allocator: first-fit over a free-block list with coalescing of adjacent
// free blocks, 8-byte alignment, and a free-bytes watermark. The arena is virtual (block
// offsets, not host memory); the algorithm and its branch structure follow heap_4.c.

#include <algorithm>

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/heap");

constexpr uint64_t kAlignment = 8;
constexpr uint64_t kHeapStructSize = 16;  // per-block bookkeeping overhead

uint64_t AlignUp(uint64_t value) { return (value + kAlignment - 1) & ~(kAlignment - 1); }

// First-fit scan. Returns blocks.size() when no block fits.
size_t FindFreeBlock(KernelContext& ctx, const Heap4& heap, uint64_t want) {
  for (size_t i = 0; i < heap.blocks.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (heap.blocks[i].free && heap.blocks[i].size >= want) {
      return i;
    }
  }
  return heap.blocks.size();
}

void Coalesce(KernelContext& ctx, Heap4& heap) {
  for (size_t i = 0; i + 1 < heap.blocks.size();) {
    ctx.ConsumeCycles(kListOpCycles);
    HeapBlock& cur = heap.blocks[i];
    HeapBlock& next = heap.blocks[i + 1];
    if (cur.free && next.free && cur.offset + cur.size == next.offset) {
      EOF_COV(ctx);
      cur.size += next.size;
      heap.blocks.erase(heap.blocks.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
}

int64_t PortMalloc(KernelContext& ctx, FreeRtosState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t size = args[0].scalar;
  Heap4& heap = state.heap;
  if (size == 0) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t want = AlignUp(size + kHeapStructSize);
  if (want < size) {
    EOF_COV(ctx);
    return 0;  // overflow in the size computation is rejected
  }
  EOF_COV_BUCKET(ctx, CovSizeClass(size));
  size_t index = FindFreeBlock(ctx, heap, want);
  if (index == heap.blocks.size()) {
    EOF_COV(ctx);
    return 0;  // out of heap
  }
  EOF_COV_BUCKET(ctx, heap.blocks.size());  // fragmentation depth
  HeapBlock& block = heap.blocks[index];
  uint64_t alloc_offset = block.offset;
  if (block.size - want >= 2 * kHeapStructSize + kAlignment) {
    // Split: keep the tail as a new free block.
    EOF_COV(ctx);
    HeapBlock tail;
    tail.offset = block.offset + want;
    tail.size = block.size - want;
    tail.free = true;
    block.size = want;
    block.free = false;
    heap.blocks.insert(heap.blocks.begin() + static_cast<std::ptrdiff_t>(index) + 1, tail);
  } else {
    // Hand out the whole block.
    EOF_COV(ctx);
    block.free = false;
  }
  ctx.ConsumeCycles(kAllocOpCycles);
  heap.free_bytes -= heap.blocks[index].size;
  heap.min_ever_free = std::min(heap.min_ever_free, heap.free_bytes);
  ++heap.alloc_count;
  int64_t handle = state.heap_allocs.Insert(alloc_offset);
  if (handle == 0) {
    EOF_COV(ctx);
    // Allocation tracker full: roll back so the heap stays consistent.
    heap.blocks[index].free = true;
    heap.free_bytes += heap.blocks[index].size;
    Coalesce(ctx, heap);
    return 0;
  }
  return handle;
}

int64_t PortFree(KernelContext& ctx, FreeRtosState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  uint64_t* offset = state.heap_allocs.Find(handle);
  if (offset == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;  // vPortFree(NULL) and stale pointers are no-ops here
  }
  Heap4& heap = state.heap;
  for (HeapBlock& block : heap.blocks) {
    ctx.ConsumeCycles(kListOpCycles);
    if (block.offset == *offset) {
      if (block.free) {
        EOF_COV(ctx);
        return pdFAIL;  // double free caught by the allocated-bit check
      }
      EOF_COV(ctx);
      block.free = true;
      heap.free_bytes += block.size;
      state.heap_allocs.Remove(handle);
      Coalesce(ctx, heap);
      ctx.ConsumeCycles(kAllocOpCycles);
      return pdPASS;
    }
  }
  EOF_COV(ctx);
  return pdFAIL;
}

int64_t GetFreeHeapSize(KernelContext& ctx, FreeRtosState& state,
                        const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.heap.free_bytes);
}

int64_t GetMinimumEverFreeHeapSize(KernelContext& ctx, FreeRtosState& state,
                                   const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles / 4);
  EOF_COV(ctx);
  return static_cast<int64_t>(state.heap.min_ever_free);
}

}  // namespace

void HeapInit(FreeRtosState& state, uint64_t arena_size) {
  state.heap.arena_size = arena_size;
  state.heap.blocks = {HeapBlock{0, arena_size, true}};
  state.heap.free_bytes = arena_size;
  state.heap.min_ever_free = arena_size;
  state.heap.alloc_count = 0;
}

Status RegisterHeapApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "pvPortMalloc";
    spec.subsystem = "heap";
    spec.doc = "allocate from the FreeRTOS heap";
    spec.args = {ArgSpec::Scalar("size", 32, 0, 16384)};
    spec.produces = "heap_mem";
    RETURN_IF_ERROR(table.Register(std::move(spec), PortMalloc));
  }
  {
    ApiSpec spec;
    spec.name = "vPortFree";
    spec.subsystem = "heap";
    spec.doc = "return memory to the FreeRTOS heap";
    spec.args = {ArgSpec::Resource("mem", "heap_mem")};
    RETURN_IF_ERROR(table.Register(std::move(spec), PortFree));
  }
  {
    ApiSpec spec;
    spec.name = "xPortGetFreeHeapSize";
    spec.subsystem = "heap";
    spec.doc = "current free heap bytes";
    RETURN_IF_ERROR(table.Register(std::move(spec), GetFreeHeapSize));
  }
  {
    ApiSpec spec;
    spec.name = "xPortGetMinimumEverFreeHeapSize";
    spec.subsystem = "heap";
    spec.doc = "low-watermark of free heap bytes";
    RETURN_IF_ERROR(table.Register(std::move(spec), GetMinimumEverFreeHeapSize));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
