// Behavioural tests of the simulated kernels' normal-path semantics, called directly
// through each OS's API registry (no agent in the loop). These pin down the contracts the
// fuzzer relies on: status conventions, resource lifecycles, bounds checking, and the
// hardware-peripheral gates.

#include <gtest/gtest.h>

#include "src/agent/agent_layout.h"
#include "src/core/image_builder.h"
#include "src/hw/board_catalog.h"
#include "src/kernel/kernel_context.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class OsApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void Boot(const std::string& os_name, const std::string& board_name = "") {
    OsInfo info = OsRegistry::Instance().Find(os_name).value();
    std::string board = board_name.empty() ? info.default_board : board_name;
    BoardSpec spec = BoardSpecByName(board).value();
    ImageBuildOptions options;
    options.os_name = os_name;
    image_ = BuildImage(spec, options).value();
    board_ = std::make_unique<Board>(spec);
    board_->InstallImage(image_);
    CovRingLayout ring;
    ring.ram_offset = kCovRingOffset;
    ring.capacity = CovRingCapacityFor(spec.ram_bytes);
    ctx_ = std::make_unique<KernelContext>(*board_, *image_, ring);
    os_ = info.factory();
    ASSERT_TRUE(os_->Init(*ctx_).ok());
  }

  int64_t Call(const char* api, std::vector<ArgValue> args = {}) {
    const ApiSpec* spec = os_->registry().FindByName(api);
    EXPECT_NE(spec, nullptr) << api;
    auto result = os_->CallApi(*ctx_, spec->id, args);
    EXPECT_TRUE(result.ok()) << api << ": " << result.status().ToString();
    return result.ok() ? result.value() : INT64_MIN;
  }

  static ArgValue S(uint64_t value) {
    ArgValue arg;
    arg.scalar = value;
    return arg;
  }
  static ArgValue B(const std::string& text) {
    ArgValue arg;
    arg.bytes.assign(text.begin(), text.end());
    return arg;
  }

  std::shared_ptr<FirmwareImage> image_;
  std::unique_ptr<Board> board_;
  std::unique_ptr<KernelContext> ctx_;
  std::unique_ptr<Os> os_;
};

// --- The API table: one per OS per process, state per boot ---

TEST_F(OsApiTest, InstancesOfAnOsShareOneApiTable) {
  for (const char* name : {"freertos", "rtthread", "nuttx", "zephyr", "pokos"}) {
    OsInfo info = OsRegistry::Instance().Find(name).value();
    std::unique_ptr<Os> first = info.factory();
    std::unique_ptr<Os> second = info.factory();
    EXPECT_EQ(&first->registry(), &second->registry()) << name;
    EXPECT_GT(first->registry().size(), 0u) << name;
  }
}

TEST_F(OsApiTest, CallsReachOnlyTheDispatchingInstancesState) {
  Boot("rtthread");
  std::unique_ptr<Os> other = OsRegistry::Instance().Find("rtthread").value().factory();
  ASSERT_TRUE(other->Init(*ctx_).ok());
  ASSERT_GT(Call("rt_sem_create", {B("sem0"), S(0)}), 0);
  int64_t object = Call("rt_object_find", {B("sem0"), S(2)});
  EXPECT_GT(object, 0);

  uint32_t find = other->registry().FindByName("rt_object_find")->id;
  auto on_other = other->CallApi(*ctx_, find, {B("sem0"), S(2)});
  ASSERT_TRUE(on_other.ok());
  EXPECT_EQ(on_other.value(), 0);  // the other boot never created it
  EXPECT_EQ(Call("rt_object_find", {B("sem0"), S(2)}), object);
}

TEST_F(OsApiTest, CallApiRejectsUnknownIdsAndArityMismatches) {
  Boot("rtthread");
  EXPECT_EQ(os_->CallApi(*ctx_, static_cast<uint32_t>(os_->registry().size()), {})
                .status()
                .code(),
            ErrorCode::kNotFound);
  uint32_t find = os_->registry().FindByName("rt_object_find")->id;
  EXPECT_EQ(os_->CallApi(*ctx_, find, {B("sem0")}).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- FreeRTOS ---

TEST_F(OsApiTest, FreertosTaskLifecycle) {
  Boot("freertos");
  int64_t task = Call("xTaskCreate", {B("worker"), S(256), S(5)});
  ASSERT_GT(task, 0);
  EXPECT_EQ(Call("uxTaskPriorityGet", {S(static_cast<uint64_t>(task))}), 5);
  EXPECT_EQ(Call("vTaskPrioritySet", {S(static_cast<uint64_t>(task)), S(99)}), 1);
  EXPECT_EQ(Call("uxTaskPriorityGet", {S(static_cast<uint64_t>(task))}), 24);  // clamped
  EXPECT_EQ(Call("vTaskSuspend", {S(static_cast<uint64_t>(task))}), 1);
  EXPECT_EQ(Call("vTaskResume", {S(static_cast<uint64_t>(task))}), 1);
  EXPECT_EQ(Call("vTaskResume", {S(static_cast<uint64_t>(task))}), 0);  // not suspended
  EXPECT_EQ(Call("uxTaskGetNumberOfTasks"), 2);  // IDLE + worker
  EXPECT_EQ(Call("vTaskDelete", {S(static_cast<uint64_t>(task))}), 1);
  EXPECT_EQ(Call("uxTaskPriorityGet", {S(static_cast<uint64_t>(task))}), -1);  // stale
  EXPECT_EQ(Call("xTaskCreate", {B("tiny"), S(16), S(1)}), -3);  // stack below minimum
}

TEST_F(OsApiTest, FreertosQueueAndSemaphoreConventions) {
  Boot("freertos");
  int64_t queue = Call("xQueueCreate", {S(2), S(8)});
  ASSERT_GT(queue, 0);
  uint64_t q = static_cast<uint64_t>(queue);
  EXPECT_EQ(Call("xQueueReceive", {S(q)}), -2);  // errQUEUE_EMPTY
  EXPECT_EQ(Call("xQueueSend", {S(q), B("ab"), S(0)}), 1);
  EXPECT_EQ(Call("xQueueSend", {S(q), B("cd"), S(0)}), 1);
  EXPECT_EQ(Call("xQueueSend", {S(q), B("ef"), S(0)}), -1);  // errQUEUE_FULL
  EXPECT_EQ(Call("uxQueueMessagesWaiting", {S(q)}), 2);
  EXPECT_EQ(Call("xQueueReset", {S(q)}), 1);
  EXPECT_EQ(Call("uxQueueMessagesWaiting", {S(q)}), 0);

  int64_t mutex = Call("xSemaphoreCreateMutex");
  ASSERT_GT(mutex, 0);
  uint64_t m = static_cast<uint64_t>(mutex);
  EXPECT_EQ(Call("xSemaphoreTake", {S(m)}), 1);
  EXPECT_EQ(Call("xSemaphoreTake", {S(m)}), 0);  // held
  EXPECT_EQ(Call("xSemaphoreGive", {S(m)}), 1);
  EXPECT_EQ(Call("xSemaphoreGive", {S(m)}), 0);  // nobody holds it
}

TEST_F(OsApiTest, FreertosHeapCoalesces) {
  Boot("freertos");
  int64_t free_before = Call("xPortGetFreeHeapSize");
  int64_t a = Call("pvPortMalloc", {S(1000)});
  int64_t b = Call("pvPortMalloc", {S(2000)});
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  EXPECT_LT(Call("xPortGetFreeHeapSize"), free_before);
  EXPECT_EQ(Call("vPortFree", {S(static_cast<uint64_t>(a))}), 1);
  EXPECT_EQ(Call("vPortFree", {S(static_cast<uint64_t>(b))}), 1);
  EXPECT_EQ(Call("xPortGetFreeHeapSize"), free_before);  // fully coalesced
  EXPECT_EQ(Call("vPortFree", {S(static_cast<uint64_t>(a))}), 0);  // stale handle
  EXPECT_EQ(Call("pvPortMalloc", {S(0)}), 0);
  EXPECT_LE(Call("xPortGetMinimumEverFreeHeapSize"), free_before);
}

TEST_F(OsApiTest, FreertosPartitionGates) {
  // On real hardware, partitions work after load_partitions(); on QEMU the flash
  // controller is absent and the API degrades.
  Boot("freertos");
  EXPECT_EQ(Call("load_partitions", {S(0), S(4)}), 0);
  int64_t nvs = Call("esp_partition_find", {B("nvs")});
  ASSERT_GT(nvs, 0);
  EXPECT_EQ(Call("esp_partition_write",
                 {S(static_cast<uint64_t>(nvs)), S(0), B("blob")}),
            0);
  int64_t kernel = Call("esp_partition_find", {B("kernel")});
  EXPECT_EQ(Call("esp_partition_write",
                 {S(static_cast<uint64_t>(kernel)), S(0), B("x")}),
            -262);  // write-protected

  Boot("freertos", "qemu-virt-arm");
  EXPECT_EQ(Call("load_partitions", {S(0), S(4)}), -262);  // ESP_ERR_NOT_SUPPORTED
}

// A mutated length near UINT64_MAX must not wrap esp_partition's bounds check: the
// read used to pass it and charge 2^64 - 4 cycles, ending any campaign on the spot.
TEST_F(OsApiTest, FreertosPartitionBoundsCannotWrap) {
  Boot("freertos");
  EXPECT_EQ(Call("load_partitions", {S(0), S(4)}), 0);
  const uint64_t nvs = static_cast<uint64_t>(Call("esp_partition_find", {B("nvs")}));
  const VirtualTime before = board_->clock().Now();
  EXPECT_EQ(Call("esp_partition_read", {S(nvs), S(1), S(UINT64_MAX)}), -258);
  EXPECT_EQ(Call("esp_partition_write", {S(nvs), S(UINT64_MAX - 1), B("blob")}), -258);
  EXPECT_LT(board_->clock().Now() - before, kVirtualSecond);
}

// --- RT-Thread ---

TEST_F(OsApiTest, RtthreadObjectRegistry) {
  Boot("rtthread");
  int64_t object = Call("rt_object_init", {S(2), B("sem2")});
  ASSERT_GT(object, 0);
  EXPECT_EQ(Call("rt_object_get_type", {S(static_cast<uint64_t>(object))}), 2);
  EXPECT_EQ(Call("rt_object_find", {B("sem2"), S(2)}), object);
  EXPECT_EQ(Call("rt_object_get_length", {S(2)}), 1);
  EXPECT_EQ(Call("rt_object_detach", {S(static_cast<uint64_t>(object))}), 0);
  EXPECT_EQ(Call("rt_object_detach", {S(static_cast<uint64_t>(object))}), -1);
  EXPECT_EQ(Call("rt_object_find", {B("sem2"), S(2)}), 0);
}

TEST_F(OsApiTest, RtthreadEventSemantics) {
  Boot("rtthread");
  int64_t event = Call("rt_event_create", {B("evt0")});
  ASSERT_GT(event, 0);
  uint64_t e = static_cast<uint64_t>(event);
  EXPECT_EQ(Call("rt_event_send", {S(e), S(0)}), -10);      // empty set rejected
  EXPECT_EQ(Call("rt_event_send", {S(e), S(0x3)}), 0);
  EXPECT_EQ(Call("rt_event_recv", {S(e), S(0x1), S(2)}), 0);       // OR satisfied
  EXPECT_EQ(Call("rt_event_recv", {S(e), S(0x3), S(1 | 4)}), 0);   // AND+CLEAR
  EXPECT_EQ(Call("rt_event_recv", {S(e), S(0x3), S(1)}), -2);      // cleared -> timeout
  EXPECT_EQ(Call("rt_event_delete", {S(e)}), 0);
}

TEST_F(OsApiTest, RtthreadMessageQueueSemantics) {
  Boot("rtthread");
  EXPECT_EQ(Call("rt_mq_create", {B("mq0"), S(0), S(4)}), 0);    // zero msg size
  EXPECT_EQ(Call("rt_mq_create", {B("mq0"), S(16), S(64)}), 0);  // depth beyond limit
  int64_t mq = Call("rt_mq_create", {B("mq0"), S(16), S(2)});
  ASSERT_GT(mq, 0);
  uint64_t q = static_cast<uint64_t>(mq);
  EXPECT_EQ(Call("rt_mq_recv", {S(q)}), -2);  // empty -> timeout
  EXPECT_EQ(Call("rt_mq_send", {S(q), B("0123456789abcdef0")}), -1);  // oversized
  EXPECT_EQ(Call("rt_mq_send", {S(q), B("first")}), 0);
  EXPECT_EQ(Call("rt_mq_send", {S(q), B("second")}), 0);
  EXPECT_EQ(Call("rt_mq_send", {S(q), B("third")}), -3);  // full
  EXPECT_EQ(Call("rt_mq_urgent", {S(q), B("x")}), -3);    // urgent needs room too
  EXPECT_EQ(Call("rt_mq_recv", {S(q)}), 5);               // "first"
  EXPECT_EQ(Call("rt_mq_urgent", {S(q), B("vip")}), 0);
  EXPECT_EQ(Call("rt_mq_recv", {S(q)}), 3);               // urgent jumped the line
  EXPECT_EQ(Call("rt_mq_recv", {S(q)}), 6);               // "second"
  EXPECT_EQ(Call("rt_mq_delete", {S(q)}), 0);
  EXPECT_EQ(Call("rt_mq_recv", {S(q)}), -10);             // stale handle
}

TEST_F(OsApiTest, RtthreadDeviceFrameworkAndConsole) {
  Boot("rtthread");
  int64_t uart = Call("rt_device_find", {B("uart1")});
  ASSERT_GT(uart, 0);
  uint64_t d = static_cast<uint64_t>(uart);
  EXPECT_EQ(Call("rt_device_write", {S(d), B("x")}), -1);  // not opened
  EXPECT_EQ(Call("rt_device_open", {S(d), S(0x003)}), 0);
  EXPECT_EQ(Call("rt_device_write", {S(d), B("hello")}), 5);
  EXPECT_EQ(Call("rt_console_set_device", {B("uart1")}), 0);
  EXPECT_EQ(Call("rt_device_close", {S(d)}), 0);
  EXPECT_EQ(Call("rt_device_unregister", {S(d)}), 0);
  EXPECT_EQ(Call("rt_device_find", {B("uart1")}), 0);  // gone from the registry
}

TEST_F(OsApiTest, RtthreadSmemLifecycle) {
  Boot("rtthread");
  int64_t smem = Call("rt_smem_init", {B("sm0"), S(1024)});
  ASSERT_GT(smem, 0);
  uint64_t s = static_cast<uint64_t>(smem);
  int64_t mem = Call("rt_smem_alloc", {S(s), S(100)});
  ASSERT_GT(mem, 0);
  EXPECT_EQ(Call("rt_smem_free", {S(static_cast<uint64_t>(mem))}), 0);
  EXPECT_EQ(Call("rt_smem_free", {S(static_cast<uint64_t>(mem))}), -10);  // double free
  EXPECT_EQ(Call("rt_smem_setname", {S(s), B("short")}), 0);
  EXPECT_EQ(Call("rt_smem_alloc", {S(s), S(4096)}), 0);  // larger than the instance
  EXPECT_EQ(Call("rt_smem_detach", {S(s)}), 0);
  EXPECT_EQ(Call("rt_smem_init", {B("sm1"), S(16)}), 0);  // below minimum size
}

// --- NuttX ---

TEST_F(OsApiTest, NuttxEnvironSemantics) {
  Boot("nuttx");
  EXPECT_EQ(Call("getenv", {B("PATH")}), 4);  // "/bin" from boot
  EXPECT_EQ(Call("setenv", {B("TZ"), B("UTC"), S(1)}), 0);
  EXPECT_EQ(Call("getenv", {B("TZ")}), 3);
  EXPECT_EQ(Call("setenv", {B("TZ"), B("CET+1"), S(0)}), 0);  // no-overwrite keeps UTC
  EXPECT_EQ(Call("getenv", {B("TZ")}), 3);
  EXPECT_EQ(Call("setenv", {B("BAD=NAME"), B("v"), S(1)}), -22);
  EXPECT_EQ(Call("unsetenv", {B("TZ")}), 0);
  EXPECT_EQ(Call("getenv", {B("TZ")}), 0);
  EXPECT_EQ(Call("clearenv"), 0);
  EXPECT_EQ(Call("getenv", {B("PATH")}), 0);
}

TEST_F(OsApiTest, NuttxMqueueSemantics) {
  Boot("nuttx");
  EXPECT_EQ(Call("mq_open", {B("noslash"), S(4), S(16)}), -22);
  int64_t mq = Call("mq_open", {B("/mq0"), S(2), S(8)});
  ASSERT_GT(mq, 0);
  uint64_t m = static_cast<uint64_t>(mq);
  EXPECT_EQ(Call("mq_receive", {S(m)}), -11);             // EAGAIN on empty
  EXPECT_EQ(Call("mq_send", {S(m), B("0123456789")}), -90);  // EMSGSIZE
  EXPECT_EQ(Call("mq_send", {S(m), B("ab")}), 0);
  EXPECT_EQ(Call("mq_send", {S(m), B("cd")}), 0);
  EXPECT_EQ(Call("mq_send", {S(m), B("ef")}), -11);       // full
  EXPECT_EQ(Call("mq_receive", {S(m)}), 2);               // returns message size
  EXPECT_EQ(Call("mq_close", {S(m)}), 0);
}

TEST_F(OsApiTest, NuttxSemPostRefusesToPassSemValueMax) {
  Boot("nuttx");
  EXPECT_EQ(Call("sem_init", {S(0x80000000ULL)}), -22);  // above SEM_VALUE_MAX
  int64_t sem = Call("sem_init", {S(0x7fffffff)});
  ASSERT_GT(sem, 0);
  uint64_t s = static_cast<uint64_t>(sem);
  EXPECT_EQ(Call("sem_post", {S(s)}), -75);  // EOVERFLOW, count unchanged
  EXPECT_EQ(Call("sem_wait", {S(s)}), 0);
  EXPECT_EQ(Call("sem_post", {S(s)}), 0);    // back at SEM_VALUE_MAX
  EXPECT_EQ(Call("sem_post", {S(s)}), -75);
}

TEST_F(OsApiTest, NuttxClockAndTimers) {
  Boot("nuttx");
  EXPECT_EQ(Call("clock_settime", {S(1), S(100), S(0)}), -22);  // monotonic not settable
  EXPECT_EQ(Call("clock_settime", {S(0), S(1700000123), S(500)}), 0);
  EXPECT_EQ(Call("clock_gettime", {S(0)}), 1700000123);
  EXPECT_EQ(Call("clock_getres", {S(0)}), 10000000);
  EXPECT_EQ(Call("gettimeofday"), 1700000123);

  int64_t timer = Call("timer_create", {S(0), S(4)});
  ASSERT_GT(timer, 0);
  uint64_t t = static_cast<uint64_t>(timer);
  EXPECT_EQ(Call("timer_gettime", {S(t)}), 0);  // disarmed
  EXPECT_EQ(Call("timer_settime", {S(t), S(5000000)}), 0);
  EXPECT_EQ(Call("timer_gettime", {S(t)}), 5000000);
  EXPECT_EQ(Call("timer_settime", {S(t), S(0)}), 0);  // disarm
  EXPECT_EQ(Call("timer_gettime", {S(t)}), 0);
  EXPECT_EQ(Call("timer_delete", {S(t)}), 0);
  EXPECT_EQ(Call("timer_create", {S(0), S(50)}), -22);  // signo out of range, checked path
}

// --- Zephyr ---

TEST_F(OsApiTest, ZephyrSysHeapAllocFree) {
  Boot("zephyr");
  int64_t a = Call("sys_heap_alloc", {S(100)});
  int64_t b = Call("sys_heap_alloc", {S(200)});
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  EXPECT_GT(Call("sys_heap_runtime_stats_get"), 0);
  EXPECT_EQ(Call("sys_heap_free", {S(static_cast<uint64_t>(a))}), 0);
  EXPECT_EQ(Call("sys_heap_free", {S(static_cast<uint64_t>(a))}), -22);  // stale
  EXPECT_EQ(Call("sys_heap_free", {S(static_cast<uint64_t>(b))}), 0);
  EXPECT_EQ(Call("sys_heap_runtime_stats_get"), 0);
  EXPECT_EQ(Call("sys_heap_alloc", {S(0)}), 0);
}

TEST_F(OsApiTest, ZephyrMsgqSemantics) {
  Boot("zephyr");
  EXPECT_EQ(Call("k_msgq_alloc_init", {S(0), S(4)}), -22);  // validated alloc path
  int64_t msgq = Call("k_msgq_alloc_init", {S(8), S(2)});
  ASSERT_GT(msgq, 0);
  uint64_t q = static_cast<uint64_t>(msgq);
  EXPECT_EQ(Call("k_msgq_get", {S(q)}), -42);  // ENOMSG
  EXPECT_EQ(Call("k_msgq_put", {S(q), B("hi")}), 0);
  EXPECT_EQ(Call("k_msgq_put", {S(q), B("ho")}), 0);
  EXPECT_EQ(Call("k_msgq_put", {S(q), B("xx")}), -11);  // EAGAIN when full
  EXPECT_EQ(Call("k_msgq_num_used_get", {S(q)}), 2);
  EXPECT_EQ(Call("k_msgq_get", {S(q)}), 0);
  EXPECT_EQ(Call("k_msgq_purge", {S(q)}), 0);
  EXPECT_EQ(Call("k_msgq_num_used_get", {S(q)}), 0);
}

TEST_F(OsApiTest, ZephyrThreadPriorityWindow) {
  Boot("zephyr");
  EXPECT_EQ(Call("k_thread_create", {B("rx"), S(1024), S(31)}), 0);  // outside [-16, 15]
  int64_t thread = Call("k_thread_create", {B("rx"), S(1024), S(5)});
  ASSERT_GT(thread, 0);
  uint64_t t = static_cast<uint64_t>(thread);
  EXPECT_EQ(Call("k_thread_suspend", {S(t)}), 0);
  EXPECT_EQ(Call("k_thread_resume", {S(t)}), 0);
  EXPECT_EQ(Call("k_thread_abort", {S(t)}), 0);
  EXPECT_EQ(Call("k_thread_suspend", {S(t)}), -22);  // gone
}

// --- PoKOS ---

TEST_F(OsApiTest, PokosArinc653ModeMachine) {
  Boot("pokos");
  int64_t partition = Call("pok_partition_create", {B("p0"), S(4096), S(100)});
  ASSERT_GT(partition, 0);
  uint64_t p = static_cast<uint64_t>(partition);
  // Threads can only be created before NORMAL and started after it.
  int64_t thread = Call("pok_thread_create", {S(p), S(10), S(50)});
  ASSERT_GT(thread, 0);
  EXPECT_EQ(Call("pok_thread_start", {S(static_cast<uint64_t>(thread))}), 8);  // MODE
  EXPECT_EQ(Call("pok_partition_set_mode", {S(p), S(3)}), 0);  // cold-start -> NORMAL
  EXPECT_EQ(Call("pok_thread_start", {S(static_cast<uint64_t>(thread))}), 0);
  EXPECT_EQ(Call("pok_thread_create", {S(p), S(10), S(50)}), 0);  // too late now
  EXPECT_EQ(Call("pok_partition_set_mode", {S(p), S(3)}), 8);    // NORMAL -> NORMAL illegal
  EXPECT_EQ(Call("pok_partition_set_mode", {S(p), S(1)}), 0);    // back to cold start
}

TEST_F(OsApiTest, PokosPortsDirectionAndValidity) {
  Boot("pokos");
  int64_t source = Call("pok_sampling_port_create", {B("sp0"), S(64), S(1), S(10)});
  int64_t sink = Call("pok_sampling_port_create", {B("sp1"), S(64), S(0), S(10)});
  ASSERT_GT(source, 0);
  ASSERT_GT(sink, 0);
  EXPECT_EQ(Call("pok_sampling_port_write", {S(static_cast<uint64_t>(sink)), B("x")}), 8);
  EXPECT_EQ(Call("pok_sampling_port_read", {S(static_cast<uint64_t>(source))}), 3);  // EMPTY
  EXPECT_EQ(Call("pok_sampling_port_write", {S(static_cast<uint64_t>(source)), B("abc")}),
            0);
  EXPECT_EQ(Call("pok_sampling_port_read", {S(static_cast<uint64_t>(source))}), 3);

  int64_t qport = Call("pok_queuing_port_create", {B("qp0"), S(32), S(2), S(1)});
  ASSERT_GT(qport, 0);
  uint64_t qp = static_cast<uint64_t>(qport);
  EXPECT_EQ(Call("pok_queuing_port_send", {S(qp), B("m1")}), 0);
  EXPECT_EQ(Call("pok_queuing_port_send", {S(qp), B("m2")}), 0);
  EXPECT_EQ(Call("pok_queuing_port_send", {S(qp), B("m3")}), 4);  // FULL
  EXPECT_EQ(Call("pok_queuing_port_receive", {S(qp)}), 2);
}

// Hardware gates close on emulated machines: the same call sequence yields strictly fewer
// coverage entries on QEMU than on the real board.
TEST_F(OsApiTest, PeripheralGatingReducesEmulatedCoverage) {
  auto run = [&](const std::string& board) {
    Boot("rtthread", board);
    (void)Call("rt_sem_create", {B("sem0"), S(0)});
    // Unsatisfied event receive arms a waiter only with a hardware timer present.
    int64_t event = Call("rt_event_create", {B("evt0")});
    (void)Call("rt_event_recv", {S(static_cast<uint64_t>(event)), S(1), S(2)});
    return ctx_->cov_events();
  };
  uint64_t hardware = run("stm32h745-nucleo");
  uint64_t emulated = run("qemu-virt-arm");
  EXPECT_GT(hardware, emulated);
}

}  // namespace
}  // namespace eof
