// Tests of the image builder: flash layout, symbol publication, architecture gating,
// instrumentation sizing (§5.5.1 accounting), and flash-capacity rejection.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/image_builder.h"

#include "src/agent/agent_layout.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/hw/board_catalog.h"
#include "src/kernel/image_layout.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class ImageBuilderTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }
};

TEST_P(ImageBuilderTest, BuildsOnDefaultBoardWithAllSymbols) {
  OsInfo info = OsRegistry::Instance().Find(GetParam()).value();
  BoardSpec spec = BoardSpecByName(info.default_board).value();
  ImageBuildOptions options;
  options.os_name = GetParam();
  auto image = BuildImage(spec, options);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  // The Figure-4 program points, the OS exception function, and the agent data blocks.
  std::unique_ptr<Os> os = info.factory();
  for (const char* symbol : {"agent_start", "executor_main", "read_prog", "execute_one",
                             "_kcmp_buf_full", "g_eof_status", "g_eof_mailbox",
                             "g_eof_cov_ring"}) {
    EXPECT_TRUE(image.value()->symbols().Has(symbol)) << symbol;
  }
  EXPECT_TRUE(image.value()->symbols().Has(os->exception_symbol()));

  // Partition layout: bootloader / ptable / kernel / nvs, table validates, ptable at the
  // shared constant the kernels use.
  const PartitionTable& table = image.value()->partition_table();
  ASSERT_EQ(table.partitions.size(), 4u);
  EXPECT_EQ(table.Find("ptable")->offset, kPtableFlashOffset);
  EXPECT_TRUE(table.Validate(spec.flash_bytes).ok());

  // Module code regions exist for every declared module and stay inside flash-ish space.
  EXPECT_EQ(image.value()->modules().size(), os->modules().size());
}

TEST_P(ImageBuilderTest, InstrumentationGrowsImageWithinPaperBand) {
  InstrumentationOptions off;
  off.enabled = false;
  uint64_t base = ComputeImageSize(GetParam(), off).value();
  uint64_t on = ComputeImageSize(GetParam(), InstrumentationOptions{}).value();
  double overhead = (static_cast<double>(on) - base) / base * 100.0;
  EXPECT_GT(overhead, 3.0) << GetParam();
  EXPECT_LT(overhead, 11.0) << GetParam();  // paper band: 4.32% .. 9.58%
}

INSTANTIATE_TEST_SUITE_P(AllOses, ImageBuilderTest,
                         ::testing::Values("freertos", "rtthread", "nuttx", "zephyr",
                                           "pokos"));

TEST(ImageBuilderGatingTest, RejectsUnportedArchitecture) {
  ASSERT_TRUE(RegisterAllOses().ok());
  // RT-Thread has no Xtensa port in the registry; ESP32 is Xtensa.
  BoardSpec esp32 = BoardSpecByName("esp32-devkitc").value();
  ImageBuildOptions options;
  options.os_name = "rtthread";
  auto image = BuildImage(esp32, options);
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(ImageBuilderGatingTest, RejectsImageLargerThanFlash) {
  ASSERT_TRUE(RegisterAllOses().ok());
  BoardSpec tiny = BoardSpecByName("stm32f407-disco").value();  // 1 MiB flash
  ImageBuildOptions options;
  options.os_name = "nuttx";  // ~3.5 MiB image
  auto image = BuildImage(tiny, options);
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ImageBuilderGatingTest, AppFilteredInstrumentationIsSmaller) {
  ASSERT_TRUE(RegisterAllOses().ok());
  InstrumentationOptions apps_only;
  apps_only.module_filter = {"apps/"};
  uint64_t full = ComputeImageSize("freertos", InstrumentationOptions{}).value();
  uint64_t filtered = ComputeImageSize("freertos", apps_only).value();
  InstrumentationOptions off;
  off.enabled = false;
  uint64_t base = ComputeImageSize("freertos", off).value();
  EXPECT_LT(filtered, full);
  EXPECT_GT(filtered, base);
}

// Image bytes are pinned: payload generation feeds the boot-ROM check, the flash
// checksums and (through freertos esp_partition_read) program behaviour, so a faster
// build must produce every payload byte it produced before, and a change to the payload
// format must move these goldens on purpose. Each partition pins the payload size,
// Fnv1aBytes over the whole payload, and the boot ROM's verdict on it.
TEST(ImageBytesGoldenTest, PayloadsMatchPinnedBytes) {
  ASSERT_TRUE(RegisterAllOses().ok());
  struct PartitionGolden {
    size_t size;
    uint64_t fnv;
    bool verifies;
  };
  struct Golden {
    const char* os;
    uint64_t seed;
    PartitionGolden parts[3];  // bootloader, ptable, kernel
  };
  const Golden kGolden[] = {
      {"zephyr", 1,
       {{49168, 0xf6853affd0208566ULL, true},
        {272, 0x4d094a9e31ee7731ULL, true},
        {920944, 0x9ac180fd56f7dcf1ULL, true}}},
      {"zephyr", 7,
       {{49168, 0x1b76fb1fd9aeddc9ULL, true},
        {272, 0x411c38b60e3ebcb2ULL, true},
        {920944, 0xedcda59ec3f74566ULL, true}}},
      {"zephyr", 3007,
       {{49168, 0x43c58506718ea325ULL, true},
        {272, 0x450da8d62300ebf7ULL, true},
        {920944, 0x6e5fdcae7ff21077ULL, true}}},
      {"rtthread", 1,
       {{49168, 0xf6853affd0208566ULL, true},
        {272, 0x4d094a9e31ee7731ULL, true},
        {2774336, 0x14b2085172d25f8dULL, true}}},
      {"rtthread", 7,
       {{49168, 0x1b76fb1fd9aeddc9ULL, true},
        {272, 0x411c38b60e3ebcb2ULL, true},
        {2774336, 0x12744bacf8e7ed25ULL, true}}},
      {"rtthread", 3007,
       {{49168, 0x43c58506718ea325ULL, true},
        {272, 0x450da8d62300ebf7ULL, true},
        {2774336, 0x33dd540e69541269ULL, true}}},
      {"freertos", 1,
       {{49168, 0xf6853affd0208566ULL, true},
        {272, 0x4d094a9e31ee7731ULL, true},
        {3015216, 0x81f39b9519f8735cULL, true}}},
      {"freertos", 7,
       {{49168, 0x1b76fb1fd9aeddc9ULL, true},
        {272, 0x411c38b60e3ebcb2ULL, true},
        {3015216, 0x330ec264ec9e3689ULL, true}}},
      {"freertos", 3007,
       {{49168, 0x43c58506718ea325ULL, true},
        {272, 0x450da8d62300ebf7ULL, true},
        {3015216, 0xa2688f2bc4427abaULL, true}}},
      {"nuttx", 1,
       {{49168, 0xf6853affd0208566ULL, true},
        {272, 0x4d094a9e31ee7731ULL, true},
        {3686376, 0x35435f901b56f31dULL, true}}},
      {"nuttx", 7,
       {{49168, 0x1b76fb1fd9aeddc9ULL, true},
        {272, 0x411c38b60e3ebcb2ULL, true},
        {3686376, 0xf514d700def0f902ULL, true}}},
      {"nuttx", 3007,
       {{49168, 0x43c58506718ea325ULL, true},
        {272, 0x450da8d62300ebf7ULL, true},
        {3686376, 0xecd1340d572f9764ULL, true}}},
      {"pokos", 1,
       {{49168, 0xf6853affd0208566ULL, true},
        {272, 0x4d094a9e31ee7731ULL, true},
        {1527216, 0xd68121eb2332d000ULL, true}}},
      {"pokos", 7,
       {{49168, 0x1b76fb1fd9aeddc9ULL, true},
        {272, 0x411c38b60e3ebcb2ULL, true},
        {1527216, 0x8b28a90b74059232ULL, true}}},
      {"pokos", 3007,
       {{49168, 0x43c58506718ea325ULL, true},
        {272, 0x450da8d62300ebf7ULL, true},
        {1527216, 0x67662862d7ba2345ULL, true}}},
  };
  for (const Golden& golden : kGolden) {
    ImageBuildOptions options;
    options.os_name = golden.os;
    options.seed = golden.seed;
    OsInfo info = OsRegistry::Instance().Find(golden.os).value();
    auto image = BuildImage(BoardSpecByName(info.default_board).value(), options);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    const char* names[] = {"bootloader", "ptable", "kernel"};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(StrFormat("%s seed %llu %s", golden.os,
                             static_cast<unsigned long long>(golden.seed), names[i]));
      const FirmwareImage::Payload* payload = image.value()->PayloadOf(names[i]);
      ASSERT_NE(payload, nullptr);
      EXPECT_EQ(payload->size(), golden.parts[i].size);
      EXPECT_EQ(Fnv1aBytes(payload->bytes().data(), payload->size()), golden.parts[i].fnv);
      EXPECT_EQ(FirmwareImage::VerifyPayload(payload->bytes()).ok(), golden.parts[i].verifies);
    }
  }
}

// AddPartition builds every payload to pass the boot ROM's check, so VerifyFlash
// accepts intact partitions without parsing them. Run the real check over every image
// the builder can produce to hold it to that.
TEST(PayloadVerdictTest, EveryBuiltPayloadVerifies) {
  ASSERT_TRUE(RegisterAllOses().ok());
  for (const std::string& os : OsRegistry::Instance().Names()) {
    OsInfo info = OsRegistry::Instance().Find(os).value();
    int built = 0;
    for (const std::string& board : KnownBoardNames()) {
      BoardSpec spec = BoardSpecByName(board).value();
      if (std::find(info.supported_archs.begin(), info.supported_archs.end(), spec.arch) ==
          info.supported_archs.end()) {
        continue;
      }
      for (uint64_t seed : {1, 7, 3007}) {
        SCOPED_TRACE(StrFormat("%s on %s seed %llu", os.c_str(), board.c_str(),
                               static_cast<unsigned long long>(seed)));
        ImageBuildOptions options;
        options.os_name = os;
        options.seed = seed;
        auto image = BuildImage(spec, options);
        if (image.status().code() == ErrorCode::kResourceExhausted) {
          break;  // the image does not fit this board's flash at any seed
        }
        ASSERT_TRUE(image.ok()) << image.status().ToString();
        ++built;
        for (const Partition& part : image.value()->partition_table().partitions) {
          const FirmwareImage::Payload* payload = image.value()->PayloadOf(part.name);
          if (payload != nullptr) {
            EXPECT_TRUE(FirmwareImage::VerifyPayload(payload->bytes()).ok()) << part.name;
          }
        }
      }
    }
    EXPECT_GT(built, 0) << os;
  }
}

}  // namespace
}  // namespace eof
