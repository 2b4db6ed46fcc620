// Stream buffers: byte-stream pipes with a trigger level (stream_buffer.c semantics,
// single-writer/single-reader).

#include <algorithm>

#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/stream");

int64_t StreamBufferCreate(KernelContext& ctx, FreeRtosState& state,
                           const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t capacity = args[0].scalar;
  uint64_t trigger = args[1].scalar;
  if (capacity == 0) {
    EOF_COV(ctx);
    return 0;
  }
  if (trigger == 0 || trigger > capacity) {
    EOF_COV(ctx);
    return 0;  // configASSERT(xTriggerLevelBytes <= xBufferSizeBytes)
  }
  if (!ctx.ReserveRam(capacity + 64).ok()) {
    EOF_COV(ctx);
    return 0;
  }
  StreamBuffer buffer;
  buffer.capacity = capacity;
  buffer.trigger_level = trigger;
  int64_t handle = state.stream_buffers.Insert(std::move(buffer));
  if (handle == 0) {
    EOF_COV(ctx);
    ctx.ReleaseRam(capacity + 64);
  }
  return handle;
}

int64_t StreamBufferSend(KernelContext& ctx, FreeRtosState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  StreamBuffer* buffer = state.stream_buffers.Find(static_cast<int64_t>(args[0].scalar));
  if (buffer == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  const std::vector<uint8_t>& payload = args[1].bytes;
  uint64_t room = buffer->capacity - buffer->data.size();
  uint64_t to_write = std::min<uint64_t>(payload.size(), room);
  if (to_write == 0) {
    EOF_COV(ctx);
    return 0;  // full; zero block time
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(buffer->data.size()));  // absolute fill class
  ctx.ConsumeCycles(kCopyPerByteCycles * to_write);
  buffer->data.insert(buffer->data.end(), payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(to_write));
  return static_cast<int64_t>(to_write);
}

int64_t StreamBufferReceive(KernelContext& ctx, FreeRtosState& state,
                            const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  StreamBuffer* buffer = state.stream_buffers.Find(static_cast<int64_t>(args[0].scalar));
  if (buffer == nullptr) {
    EOF_COV(ctx);
    return 0;
  }
  uint64_t max_len = args[1].scalar;
  if (buffer->data.size() < buffer->trigger_level) {
    EOF_COV(ctx);
    return 0;  // below trigger level the reader would block
  }
  EOF_COV(ctx);
  uint64_t to_read = std::min<uint64_t>(max_len, buffer->data.size());
  ctx.ConsumeCycles(kCopyPerByteCycles * to_read);
  buffer->data.erase(buffer->data.begin(),
                     buffer->data.begin() + static_cast<std::ptrdiff_t>(to_read));
  return static_cast<int64_t>(to_read);
}

int64_t StreamBufferReset(KernelContext& ctx, FreeRtosState& state,
                          const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  StreamBuffer* buffer = state.stream_buffers.Find(static_cast<int64_t>(args[0].scalar));
  if (buffer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  buffer->data.clear();
  return pdPASS;
}

int64_t StreamBufferDelete(KernelContext& ctx, FreeRtosState& state,
                           const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  StreamBuffer* buffer = state.stream_buffers.Find(handle);
  if (buffer == nullptr) {
    EOF_COV(ctx);
    return pdFAIL;
  }
  EOF_COV(ctx);
  ctx.ReleaseRam(buffer->capacity + 64);
  state.stream_buffers.Remove(handle);
  return pdPASS;
}

}  // namespace

Status RegisterStreamBufferApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "xStreamBufferCreate";
    spec.subsystem = "stream";
    spec.doc = "create a byte stream buffer";
    spec.args = {ArgSpec::Scalar("capacity", 32, 0, 8192),
                 ArgSpec::Scalar("trigger_level", 32, 0, 8192)};
    spec.produces = "stream_buffer";
    RETURN_IF_ERROR(table.Register(std::move(spec), StreamBufferCreate));
  }
  {
    ApiSpec spec;
    spec.name = "xStreamBufferSend";
    spec.subsystem = "stream";
    spec.doc = "write bytes into a stream buffer";
    spec.args = {ArgSpec::Resource("buffer", "stream_buffer"), ArgSpec::Buffer("data", 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), StreamBufferSend));
  }
  {
    ApiSpec spec;
    spec.name = "xStreamBufferReceive";
    spec.subsystem = "stream";
    spec.doc = "read bytes from a stream buffer";
    spec.args = {ArgSpec::Resource("buffer", "stream_buffer"),
                 ArgSpec::Scalar("max_len", 32, 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), StreamBufferReceive));
  }
  {
    ApiSpec spec;
    spec.name = "xStreamBufferReset";
    spec.subsystem = "stream";
    spec.doc = "drop buffered bytes";
    spec.args = {ArgSpec::Resource("buffer", "stream_buffer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), StreamBufferReset));
  }
  {
    ApiSpec spec;
    spec.name = "vStreamBufferDelete";
    spec.subsystem = "stream";
    spec.doc = "destroy a stream buffer";
    spec.args = {ArgSpec::Resource("buffer", "stream_buffer")};
    RETURN_IF_ERROR(table.Register(std::move(spec), StreamBufferDelete));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
