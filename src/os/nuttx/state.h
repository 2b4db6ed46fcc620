// Kernel state of the NuttX-like target: a POSIX-flavoured RTOS with environment
// variables, POSIX message queues, semaphores, timers, and a small libc.

#ifndef SRC_OS_NUTTX_STATE_H_
#define SRC_OS_NUTTX_STATE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/kernel/handle_table.h"

namespace eof {
namespace nuttx {

// errno-style returns (negated, NuttX kernel convention).
inline constexpr int64_t OK_ = 0;
inline constexpr int64_t EPERM_ = -1;
inline constexpr int64_t ENOENT_ = -2;
inline constexpr int64_t EAGAIN_ = -11;
inline constexpr int64_t ENOMEM_ = -12;
inline constexpr int64_t EEXIST_ = -17;
inline constexpr int64_t EINVAL_ = -22;
inline constexpr int64_t EOVERFLOW_ = -75;
inline constexpr int64_t EMSGSIZE_ = -90;
inline constexpr int64_t ETIMEDOUT_ = -110;

struct EnvVar {
  std::string name;
  std::string value;
};

struct MsgQueue {
  std::string name;
  uint32_t maxmsg = 0;
  uint32_t msgsize = 0;
  std::deque<std::vector<uint8_t>> msgs;
  bool open = true;
};

// The largest count a semaphore holds: sem_init refuses more, sem_post fails with
// EOVERFLOW rather than pass it.
inline constexpr int32_t kSemValueMax = 0x7fffffff;

struct PosixSem {
  int32_t value = 0;
  uint32_t post_count = 0;       // posts since init
  bool trywait_failed = false;   // a failed trywait armed the cancellation bookkeeping
};

struct PosixTimer {
  uint32_t clockid = 0;
  uint32_t signo = 0;
  uint64_t period_ns = 0;
  bool armed = false;
  uint32_t overruns = 0;
};

struct NxTask {
  std::string name;
  uint32_t priority = 100;
  uint32_t stack_size = 2048;
  bool running = true;
};

struct NuttxState {
  // Environment block: packed name=value strings with a fixed capacity.
  std::vector<EnvVar> environ;
  uint64_t environ_bytes = 0;
  static constexpr uint64_t kEnvironCapacity = 1024;

  HandleTable<MsgQueue> mqueues{32};
  HandleTable<PosixSem> semaphores{64};
  HandleTable<PosixTimer> timers{32};
  HandleTable<NxTask> tasks{32};

  // System clock (settable realtime + monotonic since boot).
  uint64_t realtime_sec = 1700000000;
  uint64_t realtime_nsec = 0;
  bool clock_was_set = false;
  uint64_t boot_ticks = 0;
};

}  // namespace nuttx
}  // namespace eof

#endif  // SRC_OS_NUTTX_STATE_H_
