// SAL socket layer plus the syz_create_bind_socket pseudo-syscall of Figure 6. Socket
// creation logs through rt_kprintf, which rides the serial console path — the road into
// bug #12 when the console device has gone stale.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/socket");

constexpr int AF_INET_ = 2;
constexpr int AF_INET6_ = 10;
constexpr int SOCK_STREAM_ = 1;
constexpr int SOCK_DGRAM_ = 2;

int64_t SalSocket(KernelContext& ctx, RtThreadState& state,
                  const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int domain = static_cast<int>(args[0].scalar);
  int type = static_cast<int>(args[1].scalar);
  int protocol = static_cast<int>(args[2].scalar);
  if (domain != AF_INET_ && domain != AF_INET6_) {
    EOF_COV(ctx);
    return -1;
  }
  if (type != SOCK_STREAM_ && type != SOCK_DGRAM_) {
    EOF_COV(ctx);
    return -1;
  }
  // sal_socket logs the new endpoint over the console (Figure 6, level 5).
  RtKprintf(ctx, state,
            StrFormat("[sal] socket created: domain=%d type=%d proto=%d", domain, type,
                      protocol));
  Socket socket;
  socket.domain = domain;
  socket.type = type;
  socket.protocol = protocol;
  int64_t handle = state.sockets.Insert(std::move(socket));
  if (handle == 0) {
    EOF_COV(ctx);
    return -1;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t SalBind(KernelContext& ctx, RtThreadState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Socket* socket = state.sockets.Find(static_cast<int64_t>(args[0].scalar));
  if (socket == nullptr) {
    EOF_COV(ctx);
    return -1;
  }
  uint64_t port = args[1].scalar;
  if (port == 0 || port > 65535) {
    EOF_COV(ctx);
    return -1;
  }
  if (socket->bound) {
    EOF_COV(ctx);
    return -1;
  }
  EOF_COV(ctx);
  socket->bound = true;
  return 0;
}

int64_t SalConnect(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Socket* socket = state.sockets.Find(static_cast<int64_t>(args[0].scalar));
  if (socket == nullptr) {
    EOF_COV(ctx);
    return -1;
  }
  if (socket->type != SOCK_STREAM_) {
    EOF_COV(ctx);
    return -1;
  }
  if (!ctx.HasPeripheral(Peripheral::kEthernet) && !ctx.HasPeripheral(Peripheral::kWifi)) {
    EOF_COV(ctx);
    return -1;  // no transport
  }
  EOF_COV(ctx);
  socket->connected = true;
  ctx.ConsumeCycles(kApiBaseCycles * 2);  // handshake
  return 0;
}

int64_t SalSend(KernelContext& ctx, RtThreadState& state,
                const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  Socket* socket = state.sockets.Find(static_cast<int64_t>(args[0].scalar));
  if (socket == nullptr) {
    EOF_COV(ctx);
    return -1;
  }
  const std::vector<uint8_t>& data = args[1].bytes;
  if (socket->type == SOCK_STREAM_ && !socket->connected) {
    EOF_COV(ctx);
    return -1;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(data.size()));
  ctx.ConsumeCycles(kCopyPerByteCycles * data.size());
  return static_cast<int64_t>(data.size());
}

int64_t SalClose(KernelContext& ctx, RtThreadState& state,
                 const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.sockets.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return -1;
  }
  EOF_COV(ctx);
  state.sockets.Remove(handle);
  return 0;
}

// Figure 6 lines 3-8: create a socket and bind it, as one pseudo-syscall.
int64_t SyzCreateBindSocket(KernelContext& ctx, RtThreadState& state,
                            const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::vector<ArgValue> socket_args = {args[0], args[1], args[2]};
  int64_t sock = SalSocket(ctx, state, socket_args);
  if (sock < 0) {
    EOF_COV(ctx);
    return -1;
  }
  std::vector<ArgValue> bind_args(2);
  bind_args[0].scalar = static_cast<uint64_t>(sock);
  bind_args[1].scalar = args[3].scalar;
  if (SalBind(ctx, state, bind_args) != 0) {
    EOF_COV(ctx);
    return -1;
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, state.sockets.live());
  return sock;
}

}  // namespace

Status RegisterSocketApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "socket";
    spec.subsystem = "socket";
    spec.doc = "create a SAL socket";
    spec.args = {ArgSpec::Flags("domain", {2, 10}), ArgSpec::Flags("type", {1, 2}),
                 ArgSpec::Scalar("protocol", 32, 0, 255)};
    spec.produces = "rt_socket";
    RETURN_IF_ERROR(table.Register(std::move(spec), SalSocket));
  }
  {
    ApiSpec spec;
    spec.name = "sal_bind";
    spec.subsystem = "socket";
    spec.doc = "bind a socket to a local port";
    spec.args = {ArgSpec::Resource("sock", "rt_socket"),
                 ArgSpec::Scalar("port", 16, 0, 65535)};
    RETURN_IF_ERROR(table.Register(std::move(spec), SalBind));
  }
  {
    ApiSpec spec;
    spec.name = "sal_connect";
    spec.subsystem = "socket";
    spec.doc = "connect a stream socket";
    spec.args = {ArgSpec::Resource("sock", "rt_socket"),
                 ArgSpec::Scalar("port", 16, 0, 65535)};
    RETURN_IF_ERROR(table.Register(std::move(spec), SalConnect));
  }
  {
    ApiSpec spec;
    spec.name = "sal_send";
    spec.subsystem = "socket";
    spec.doc = "send bytes on a socket";
    spec.args = {ArgSpec::Resource("sock", "rt_socket"), ArgSpec::Buffer("data", 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), SalSend));
  }
  {
    ApiSpec spec;
    spec.name = "sal_close";
    spec.subsystem = "socket";
    spec.doc = "close a socket";
    spec.args = {ArgSpec::Resource("sock", "rt_socket")};
    RETURN_IF_ERROR(table.Register(std::move(spec), SalClose));
  }
  {
    ApiSpec spec;
    spec.name = "syz_create_bind_socket";
    spec.subsystem = "socket";
    spec.doc = "create a socket and bind it (Figure 6 pseudo-syscall)";
    spec.args = {ArgSpec::Flags("domain", {2, 10}), ArgSpec::Flags("type", {1, 2}),
                 ArgSpec::Scalar("protocol", 32, 0, 255),
                 ArgSpec::Scalar("port", 16, 0, 65535)};
    spec.produces = "rt_socket";
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), SyzCreateBindSocket));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
