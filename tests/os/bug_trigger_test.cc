// Ground-truth reproduction of every Table-2 bug: each test drives the exact triggering
// call sequence through the deployed target and asserts that (a) the right monitor fires,
// (b) the crash text attributes to the right catalog entry, and (c) the target recovers
// via state restoration. These are the "reproducer" programs a fuzzing campaign distils.

#include <gtest/gtest.h>

#include "src/agent/wire.h"
#include "src/core/bug_catalog.h"
#include "src/core/deployment.h"
#include "src/core/monitors.h"
#include "src/fuzz/program.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

using fuzz::ProgArg;

struct Call {
  const char* api;
  std::vector<ProgArg> args;
};

class BugTriggerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void Deploy(const std::string& os_name) {
    DeployOptions options;
    options.os_name = os_name;
    auto deployment = Deployment::Create(options);
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    deployment_ = std::move(deployment.value());
    os_ = OsRegistry::Instance().Find(os_name).value().factory();
    os_name_ = os_name;
    ASSERT_TRUE(exception_monitor_.Arm(*deployment_, os_->exception_symbol()).ok());
    uint64_t executor_main = deployment_->SymbolAddress("executor_main").value();
    ASSERT_TRUE(deployment_->port().SetBreakpoint(executor_main).ok());
    auto parked = deployment_->port().Continue();
    ASSERT_TRUE(parked.ok());
    (void)deployment_->port().DrainUart();
  }

  std::vector<uint8_t> Build(const std::vector<Call>& calls) {
    std::vector<uint8_t> program;
    WireWriter writer(&program);
    for (const Call& call : calls) {
      const ApiSpec* spec = os_->registry().FindByName(call.api);
      EXPECT_NE(spec, nullptr) << call.api;
      fuzz::WriteCall(&writer, spec != nullptr ? spec->id : 0, call.args);
    }
    return program;
  }

  // Runs the sequence and expects the catalog bug `id` to manifest with `detector`.
  void ExpectBug(int id, const std::string& detector, const std::vector<Call>& calls) {
    const BugInfo* info = FindBug(id);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(deployment_->WriteTestCase(Build(calls)).ok());
    auto stop = deployment_->port().Continue();
    ASSERT_TRUE(stop.ok()) << stop.status().ToString();

    std::string crash_text;
    if (detector == "exception") {
      // Panic path: the run vectors to the OS exception function.
      for (int round = 0; round < 4 && !exception_monitor_.IsExceptionStop(stop.value());
           ++round) {
        auto next = deployment_->port().Continue();
        ASSERT_TRUE(next.ok());
        stop = next;
      }
      EXPECT_TRUE(exception_monitor_.IsExceptionStop(stop.value()))
          << "stopped at " << stop.value().symbol << " (" << HaltReasonName(stop.value().reason)
          << ") instead of " << os_->exception_symbol();
      crash_text = deployment_->port().DrainUart();
    } else {
      // Assertion path: text on the console, core parked (PC stall).
      for (int round = 0; round < 6; ++round) {
        crash_text += deployment_->port().DrainUart();
        if (log_monitor_.Scan(crash_text).has_value()) {
          break;
        }
        auto next = deployment_->port().Continue();
        ASSERT_TRUE(next.ok());
      }
      auto hit = log_monitor_.Scan(crash_text);
      ASSERT_TRUE(hit.has_value()) << "no log-monitor match in: " << crash_text;
      EXPECT_EQ(hit->kind, "assertion");
    }
    EXPECT_EQ(AttributeBug(os_name_, crash_text), id) << crash_text;

    // Recovery: full restoration brings the target back.
    ASSERT_TRUE(deployment_->ReflashAndReboot().ok());
    EXPECT_EQ(deployment_->board().power_state(), PowerState::kRunning);
  }

  static ProgArg S(uint64_t value) { return ProgArg::Scalar(value); }
  static ProgArg R(uint16_t index) { return ProgArg::Result(index); }
  static ProgArg B(const std::string& text) {
    return ProgArg::Bytes(std::vector<uint8_t>(text.begin(), text.end()));
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Os> os_;
  std::string os_name_;
  ExceptionMonitor exception_monitor_;
  LogMonitor log_monitor_;
};

// --- Zephyr ---

TEST_F(BugTriggerTest, Bug01SysHeapStress) {
  Deploy("zephyr");
  ExpectBug(1, "exception", {{"sys_heap_stress", {S(250), S(1000)}}});
}

TEST_F(BugTriggerTest, Bug02MsgqGetDivide) {
  Deploy("zephyr");
  ExpectBug(2, "exception", {{"syz_msgq_roundtrip", {S(0), S(6)}}});
}

TEST_F(BugTriggerTest, Bug03JsonEncodeDepth) {
  Deploy("zephyr");
  std::vector<Call> calls;
  for (int i = 0; i < 5; ++i) {
    calls.push_back({"json_obj_init", {}});
  }
  for (uint16_t i = 0; i < 4; ++i) {
    calls.push_back({"json_obj_append_child", {R(i), R(static_cast<uint16_t>(i + 1)),
                                               B("inner")}});
  }
  calls.push_back({"json_obj_encode", {R(0)}});
  ExpectBug(3, "exception", calls);
}

TEST_F(BugTriggerTest, Bug04KHeapInitTiny) {
  Deploy("zephyr");
  ExpectBug(4, "exception", {{"k_heap_init", {S(4)}}});
}

// --- RT-Thread ---

TEST_F(BugTriggerTest, Bug05ObjectGetTypeNull) {
  Deploy("rtthread");
  ExpectBug(5, "log", {{"rt_object_get_type", {S(0)}}});
}

TEST_F(BugTriggerTest, Bug06ServiceListCorrupt) {
  Deploy("rtthread");
  std::vector<Call> calls;
  for (int i = 0; i < 5; ++i) {
    calls.push_back({"rt_service_register", {B("svc0")}});
  }
  calls.push_back({"rt_service_unregister", {R(0)}});
  calls.push_back({"rt_service_unregister", {R(0)}});  // double unlink
  calls.push_back({"rt_service_poll", {}});
  ExpectBug(6, "exception", calls);
}

TEST_F(BugTriggerTest, Bug07MempoolSuspendHead) {
  Deploy("rtthread");
  std::vector<Call> calls = {{"rt_mp_create", {B("mp0"), S(8), S(16)}}};
  for (int i = 0; i < 8; ++i) {
    calls.push_back({"rt_mp_alloc", {R(0), S(0)}});
  }
  calls.push_back({"rt_mp_alloc", {R(0), S(100)}});  // blocking alloc on drained pool
  ExpectBug(7, "exception", calls);
}

TEST_F(BugTriggerTest, Bug08ObjectInitDuplicate) {
  Deploy("rtthread");
  std::vector<Call> calls;
  const char* names[] = {"obj0", "tmr1", "sem2", "dev3", "thr4", "obj0", "obj0"};
  for (const char* name : names) {
    calls.push_back({"rt_object_init", {S(2), B(name)}});
  }
  ExpectBug(8, "log", calls);
}

TEST_F(BugTriggerTest, Bug09HeapLockUnderflow) {
  Deploy("rtthread");
  ExpectBug(9, "exception", {{"rt_malloc", {S(4000)}},
                             {"rt_malloc", {S(2000)}},
                             {"rt_malloc", {S(4097)}}});  // odd-size OOM under pressure
}

TEST_F(BugTriggerTest, Bug10EventSendTripleResume) {
  Deploy("rtthread");
  std::vector<Call> calls = {{"rt_event_create", {B("evt0")}}};
  for (int i = 0; i < 3; ++i) {
    calls.push_back({"rt_event_recv", {R(0), S(1), S(2)}});  // OR, unsatisfied -> waiter
  }
  calls.push_back({"rt_event_send", {R(0), S(1)}});
  ExpectBug(10, "exception", calls);
}

TEST_F(BugTriggerTest, Bug11SmemSetnameOverflow) {
  Deploy("rtthread");
  std::vector<Call> calls = {{"rt_smem_init", {B("sm0"), S(4096)}}};
  for (int i = 0; i < 4; ++i) {
    calls.push_back({"rt_smem_alloc", {R(0), S(64)}});
  }
  calls.push_back({"rt_smem_setname", {R(0), B("longname8")}});
  ExpectBug(11, "exception", calls);
}

TEST_F(BugTriggerTest, Bug12SerialWriteStaleConsole) {
  Deploy("rtthread");
  std::vector<Call> calls = {{"rt_device_find", {B("uart1")}},
                             {"rt_device_open", {R(0), S(0x043)}}};
  for (int i = 0; i < 4; ++i) {
    calls.push_back({"rt_device_write", {R(0), B("log\n")}});
  }
  calls.push_back({"rt_console_set_device", {B("uart1")}});
  calls.push_back({"rt_device_unregister", {R(0)}});
  calls.push_back({"syz_create_bind_socket", {S(2), S(1), S(0), S(8080)}});
  ExpectBug(12, "exception", calls);
}

// --- FreeRTOS ---

TEST_F(BugTriggerTest, Bug13LoadPartitionsOverrun) {
  Deploy("freertos");
  ExpectBug(13, "exception", {{"load_partitions", {S(7), S(15)}}});
}

// --- NuttX ---

TEST_F(BugTriggerTest, Bug14SetenvGroupCorrupt) {
  Deploy("nuttx");
  std::vector<Call> calls;
  const char* names[] = {"HOME", "TZ", "LANG", "TMP", "PS1", "TERM"};
  for (const char* name : names) {
    calls.push_back({"setenv", {B(name), B("v"), S(1)}});
  }
  calls.push_back({"setenv", {B("USER"), B(std::string(70, 'x')), S(1)}});
  ExpectBug(14, "exception", calls);
}

TEST_F(BugTriggerTest, Bug15GettimeofdayOverflow) {
  Deploy("nuttx");
  ExpectBug(15, "exception", {{"clock_settime", {S(0), S(0x80000001ULL), S(600000000)}},
                              {"gettimeofday", {}}});
}

TEST_F(BugTriggerTest, Bug16MqTimedsendPrioBitmap) {
  Deploy("nuttx");
  std::vector<Call> calls = {{"mq_open", {B("/mq0"), S(8), S(16)}}};
  for (int i = 0; i < 8; ++i) {
    calls.push_back({"mq_send", {R(0), B("mesg")}});
  }
  calls.push_back({"nxmq_timedsend", {R(0), B("mesg"), S(40), S(100)}});
  ExpectBug(16, "exception", calls);
}

TEST_F(BugTriggerTest, Bug17SemTrywaitCountCorrupt) {
  Deploy("nuttx");
  std::vector<Call> calls = {{"sem_init", {S(0)}}, {"nxsem_trywait", {R(0)}}};
  for (int i = 0; i < 5; ++i) {
    calls.push_back({"sem_post", {R(0)}});
  }
  calls.push_back({"nxsem_trywait", {R(0)}});
  ExpectBug(17, "log", calls);
}

TEST_F(BugTriggerTest, Bug18TimerCreateSigsetSmash) {
  Deploy("nuttx");
  ExpectBug(18, "exception", {{"timer_create", {S(0), S(5)}},
                              {"timer_create", {S(1), S(6)}},
                              {"timer_create", {S(7), S(50)}}});
}

TEST_F(BugTriggerTest, Bug19ClockGetresNullRow) {
  Deploy("nuttx");
  ExpectBug(19, "exception", {{"clock_getres", {S(6)}}});
}

// Every catalog entry has a reproducer above; the catalog itself is consistent.
TEST_F(BugTriggerTest, CatalogIsComplete) {
  EXPECT_EQ(BugCatalog().size(), 19u);
  int confirmed = 0;
  for (const BugInfo& bug : BugCatalog()) {
    EXPECT_NE(FindBug(bug.id), nullptr);
    EXPECT_FALSE(bug.signature.empty());
    if (bug.confirmed) {
      ++confirmed;
    }
  }
  EXPECT_EQ(confirmed, 5);  // paper: 5 confirmed by maintainers
}

}  // namespace
}  // namespace eof
