// Tests of the reproducer text format: serialize→parse round-trips (property sweep over
// generated programs), malformed-input rejection, end-to-end replay of every catalog bug
// from its text form, and `eof trim` of a padded reproducer.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/core/replay.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program_text.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"
#include "src/spec/spec_miner.h"

namespace eof {
namespace fuzz {
namespace {

const spec::CompiledSpecs& Specs(const std::string& os_name) {
  static auto* cache = new std::map<std::string, spec::CompiledSpecs>();
  auto it = cache->find(os_name);
  if (it == cache->end()) {
    (void)RegisterAllOses();
    auto os = OsRegistry::Instance().Find(os_name).value().factory();
    it = cache->emplace(os_name,
                        std::move(spec::MineValidatedSpecs(os->registry()).value().specs))
             .first;
  }
  return it->second;
}

TEST(ProgramTextTest, RoundTripPropertySweep) {
  for (const char* os : {"freertos", "rtthread", "nuttx"}) {
    const spec::CompiledSpecs& specs = Specs(os);
    Generator generator(specs, GeneratorOptions{}, 314);
    for (int i = 0; i < 200; ++i) {
      Program program = generator.Generate();
      std::string text = SerializeProgramText(specs, program);
      auto parsed = ParseProgramText(specs, text);
      ASSERT_TRUE(parsed.ok()) << os << ": " << parsed.status().ToString() << "\n" << text;
      EXPECT_EQ(parsed.value().Hash(), program.Hash()) << text;
    }
  }
}

TEST(ProgramTextTest, ParsesCommentsAndWhitespace) {
  const spec::CompiledSpecs& specs = Specs("freertos");
  const char* text = R"(
# a queue round trip
r0 = xQueueCreate(0x4, 0x8)
  r1 = xQueueSend(r0, `6869`, 0x0)
r2 = uxQueueMessagesWaiting(r0)
)";
  auto parsed = ParseProgramText(specs, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().calls.size(), 3u);
  EXPECT_EQ(parsed.value().calls[1].args[1].bytes,
            (std::vector<uint8_t>{'h', 'i'}));
  EXPECT_TRUE(parsed.value().RefsValid());
}

TEST(ProgramTextTest, RejectsMalformedInputs) {
  const spec::CompiledSpecs& specs = Specs("freertos");
  const char* bad[] = {
      "",                                        // empty
      "r0 = notAnApi(0x1)",                      // unknown API
      "r0 = xQueueCreate(0x4)",                  // arity
      "r0 = xQueueSend(r5, `00`, 0x0)",          // forward ref
      "r0 = xQueueCreate(0x4, 0x8",              // missing paren
      "r0 = xQueueSend(r0, `0`, 0x0)",           // odd hex length (also self-ref)
      "r0 = xQueueSend(r0, `zz`, 0x0)",          // bad hex
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseProgramText(specs, text).ok()) << text;
  }
}

// Backtick-hex byte literal of `text` (no terminator), as a reproducer file spells it.
std::string B(const std::string& text) {
  std::string out = "`";
  for (unsigned char c : text) {
    out += StrFormat("%02x", c);
  }
  return out + "`";
}

// `line` (one call) repeated `count` times, assigned to r`first` onward.
std::string Repeat(const std::string& line, int first, int count) {
  std::string out;
  for (int i = first; i < first + count; ++i) {
    out += StrFormat("r%d = ", i) + line + "\n";
  }
  return out;
}

struct VerdictRow {
  const char* name;
  const char* os;
  std::string text;
  bool crashed;
  int catalog_id;
  const char* detector;
};

// Every Table-2 bug as a reproducer file (the call sequences of
// tests/os/bug_trigger_test.cc in text form), plus one benign control per OS.
std::vector<VerdictRow> VerdictTable() {
  std::string bug03;
  bug03 += Repeat("json_obj_init()", 0, 5);
  for (int i = 0; i < 4; ++i) {
    bug03 += StrFormat("r%d = json_obj_append_child(r%d, r%d, ", 5 + i, i, i + 1) +
             B("inner") + ")\n";
  }
  bug03 += "r9 = json_obj_encode(r0)\n";

  std::string bug08;
  const char* names[] = {"obj0", "tmr1", "sem2", "dev3", "thr4", "obj0", "obj0"};
  for (int i = 0; i < 7; ++i) {
    bug08 += StrFormat("r%d = rt_object_init(0x2, ", i) + B(names[i]) + ")\n";
  }

  std::string bug14;
  const char* vars[] = {"HOME", "TZ", "LANG", "TMP", "PS1", "TERM"};
  for (int i = 0; i < 6; ++i) {
    bug14 += StrFormat("r%d = setenv(", i) + B(vars[i]) + ", " + B("v") + ", 0x1)\n";
  }
  bug14 += "r6 = setenv(" + B("USER") + ", " + B(std::string(70, 'x')) + ", 0x1)\n";

  return {
      {"bug01", "zephyr", "r0 = sys_heap_stress(0xfa, 0x3e8)\n", true, 1, "exception"},
      {"bug02", "zephyr", "r0 = syz_msgq_roundtrip(0x0, 0x6)\n", true, 2, "exception"},
      {"bug03", "zephyr", bug03, true, 3, "exception"},
      {"bug04", "zephyr", "r0 = k_heap_init(0x4)\n", true, 4, "exception"},
      {"bug05", "rtthread", "r0 = rt_object_get_type(0x0)\n", true, 5, "log"},
      {"bug06", "rtthread",
       Repeat("rt_service_register(" + B("svc0") + ")", 0, 5) +
           "r5 = rt_service_unregister(r0)\nr6 = rt_service_unregister(r0)\n"
           "r7 = rt_service_poll()\n",
       true, 6, "exception"},
      {"bug07", "rtthread",
       "r0 = rt_mp_create(" + B("mp0") + ", 0x8, 0x10)\n" +
           Repeat("rt_mp_alloc(r0, 0x0)", 1, 8) + "r9 = rt_mp_alloc(r0, 0x64)\n",
       true, 7, "exception"},
      {"bug08", "rtthread", bug08, true, 8, "log"},
      {"bug09", "rtthread",
       "r0 = rt_malloc(0xfa0)\nr1 = rt_malloc(0x7d0)\nr2 = rt_malloc(0x1001)\n", true, 9,
       "exception"},
      {"bug10", "rtthread",
       "r0 = rt_event_create(" + B("evt0") + ")\n" +
           Repeat("rt_event_recv(r0, 0x1, 0x2)", 1, 3) + "r4 = rt_event_send(r0, 0x1)\n",
       true, 10, "exception"},
      {"bug11", "rtthread",
       "r0 = rt_smem_init(" + B("sm0") + ", 0x1000)\n" +
           Repeat("rt_smem_alloc(r0, 0x40)", 1, 4) + "r5 = rt_smem_setname(r0, " +
           B("longname8") + ")\n",
       true, 11, "exception"},
      {"bug12", "rtthread",
       "r0 = rt_device_find(" + B("uart1") + ")\nr1 = rt_device_open(r0, 0x43)\n" +
           Repeat("rt_device_write(r0, " + B("log\n") + ")", 2, 4) +
           "r6 = rt_console_set_device(" + B("uart1") + ")\nr7 = rt_device_unregister(r0)\n"
           "r8 = syz_create_bind_socket(0x2, 0x1, 0x0, 0x1f90)\n",
       true, 12, "exception"},
      {"bug13", "freertos", "r0 = load_partitions(0x7, 0xf)\n", true, 13, "exception"},
      {"bug14", "nuttx", bug14, true, 14, "exception"},
      {"bug15", "nuttx",
       "r0 = clock_settime(0x0, 0x80000001, 0x23c34600)\nr1 = gettimeofday()\n", true, 15,
       "exception"},
      {"bug16", "nuttx",
       "r0 = mq_open(" + B("/mq0") + ", 0x8, 0x10)\n" +
           Repeat("mq_send(r0, " + B("mesg") + ")", 1, 8) + "r9 = nxmq_timedsend(r0, " +
           B("mesg") + ", 0x28, 0x64)\n",
       true, 16, "exception"},
      {"bug17", "nuttx",
       "r0 = sem_init(0x0)\nr1 = nxsem_trywait(r0)\n" + Repeat("sem_post(r0)", 2, 5) +
           "r7 = nxsem_trywait(r0)\n",
       true, 17, "log"},
      {"bug18", "nuttx",
       "r0 = timer_create(0x0, 0x5)\nr1 = timer_create(0x1, 0x6)\nr2 = timer_create(0x7, 0x32)\n",
       true, 18, "exception"},
      {"bug19", "nuttx", "r0 = clock_getres(0x6)\n", true, 19, "exception"},
      {"benign_zephyr", "zephyr", "r0 = k_heap_init(0x400)\n", false, 0, ""},
      {"benign_rtthread", "rtthread", "r0 = rt_sem_create(" + B("sem0") + ", 0x1)\n", false, 0,
       ""},
      {"benign_freertos", "freertos", "r0 = xQueueCreate(0x4, 0x8)\n", false, 0, ""},
      {"benign_nuttx", "nuttx", "r0 = clock_getres(0x0)\n", false, 0, ""},
      {"benign_pokos", "pokos", "r0 = pok_partition_create(" + B("p0") + ", 0x400, 0x64)\n",
       false, 0, ""},
  };
}

// Pins `eof replay`'s verdict (crashed, attributed catalog id, detector) for every
// catalog reproducer and a clean control per OS.
TEST(ProgramTextTest, ReplayVerdictTable) {
  (void)RegisterAllOses();
  for (const VerdictRow& row : VerdictTable()) {
    auto outcome = ReplayReproducer(row.os, row.text);
    ASSERT_TRUE(outcome.ok()) << row.name << ": " << outcome.status().ToString();
    EXPECT_EQ(outcome.value().crashed, row.crashed) << row.name;
    EXPECT_EQ(outcome.value().catalog_id, row.catalog_id) << row.name;
    EXPECT_EQ(outcome.value().detector, row.detector) << row.name;
    EXPECT_EQ(outcome.value().crash_text.empty(), !row.crashed) << row.name;
  }
}

// `eof trim`: a reproducer padded with repeats of its setup call (the repeats own
// no first-seen edge) trims back down, keeps every edge, and stays parseable.
TEST(ProgramTextTest, TrimDropsPaddingAndPreservesCoverage) {
  (void)RegisterAllOses();
  std::string text = Repeat("k_heap_init(0x400)", 0, 4) + "r4 = k_heap_init(0x4)\n";
  auto outcome = TrimReproducer("zephyr", text);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const TrimOutcome& trim = outcome.value();
  EXPECT_EQ(trim.original_calls, 5u);
  EXPECT_LT(trim.kept_calls, trim.original_calls);
  EXPECT_EQ(trim.kept_calls, 2u);
  EXPECT_EQ(trim.kept_calls + trim.removed_calls, trim.original_calls);
  EXPECT_TRUE(trim.coverage_preserved);
  EXPECT_GT(trim.original_coverage, 0u);
  EXPECT_GE(trim.trimmed_coverage, trim.original_coverage);
  auto reparsed = ParseProgramText(Specs("zephyr"), trim.trimmed_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << trim.trimmed_text;
  EXPECT_EQ(reparsed.value().calls.size(), trim.kept_calls);
  EXPECT_EQ(trim.trimmed_text, "r0 = k_heap_init(0x400)\nr1 = k_heap_init(0x4)\n");
}

}  // namespace
}  // namespace fuzz
}  // namespace eof
