// Tests of the firmware payload bytes: every default image's payloads are pinned by hash,
// so a change to how or when payloads are drawn cannot move a byte without failing here.
// Payloads are drawn on first read, so the touch budget holds campaigns to the draws they
// need: none when no kernel reads flash. Boards on several threads make concurrent first
// reads of one image's payloads (run under TSan in CI).

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "src/common/byteio.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/core/board_farm.h"
#include "src/core/deployment.h"
#include "src/core/fuzzer.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

// The hostbench campaign shape: one board, capped at `max_execs`.
FuzzerConfig CampaignConfig(const char* os, RestoreMode mode, uint64_t max_execs) {
  FuzzerConfig config;
  config.os_name = os;
  config.seed = 1;
  config.restore_mode = mode;
  config.max_execs = max_execs;
  config.budget = 10000 * kVirtualHour;  // the exec cap ends the campaign
  config.sample_points = 12;
  return config;
}

// One line per payload partition of each OS's default image at seeds 1 and 7: the
// partition, its payload length, the FNV-1a of its bytes as flashed and its header CRC.
// The bytes are read back from a deployed board's flash, so the pin holds whatever the
// payload's in-memory form is.
TEST(PayloadTest, BytesArePinned) {
  ASSERT_TRUE(RegisterAllOses().ok());
  std::string lines;
  for (const char* os : {"freertos", "rtthread", "nuttx", "zephyr", "pokos"}) {
    for (uint64_t seed : {1, 7}) {
      DeployOptions options;
      options.os_name = os;
      options.seed = seed;
      auto deployment = Deployment::Create(options);
      ASSERT_TRUE(deployment.ok()) << os << ": " << deployment.status().ToString();
      const Flash& flash = (*deployment)->board().flash();
      const FirmwareImage& image = (*deployment)->image();
      for (const Partition& part : image.partition_table().partitions) {
        if (image.PayloadOf(part.name) == nullptr) {
          continue;
        }
        const std::vector<uint8_t> head = flash.Read(part.offset, 16).value();
        ByteReader header(head);
        header.GetU32();  // magic
        const uint32_t len = header.GetU32();
        const uint64_t crc = header.GetU64();
        const std::vector<uint8_t> bytes = flash.Read(part.offset, 16 + uint64_t{len}).value();
        EXPECT_TRUE(FirmwareImage::VerifyPayload(bytes).ok()) << os << " " << part.name;
        lines += StrFormat("%s/%llu %s %u %016llx %016llx\n", os,
                           static_cast<unsigned long long>(seed), part.name.c_str(), len,
                           static_cast<unsigned long long>(Fnv1aBytes(bytes.data(), bytes.size())),
                           static_cast<unsigned long long>(crc));
      }
    }
  }
  EXPECT_EQ(lines, R"(freertos/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
freertos/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
freertos/1 kernel 3015200 81f39b9519f8735c 6a884c9d1966726a
freertos/7 bootloader 49152 1b76fb1fd9aeddc9 a69373200416bc9e
freertos/7 ptable 256 411c38b60e3ebcb2 5e3440ff52959529
freertos/7 kernel 3015200 330ec264ec9e3689 3f12917b5b7a1cdd
rtthread/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
rtthread/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
rtthread/1 kernel 2774320 14b2085172d25f8d fe54430b636c9a0d
rtthread/7 bootloader 49152 1b76fb1fd9aeddc9 a69373200416bc9e
rtthread/7 ptable 256 411c38b60e3ebcb2 5e3440ff52959529
rtthread/7 kernel 2774320 12744bacf8e7ed25 64b16cc52cb45cda
nuttx/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
nuttx/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
nuttx/1 kernel 3686360 35435f901b56f31d c5e6b95602fac36c
nuttx/7 bootloader 49152 1b76fb1fd9aeddc9 a69373200416bc9e
nuttx/7 ptable 256 411c38b60e3ebcb2 5e3440ff52959529
nuttx/7 kernel 3686360 f514d700def0f902 66bd7eb27bcfc9c5
zephyr/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
zephyr/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
zephyr/1 kernel 920928 9ac180fd56f7dcf1 8a72ed01c77b521f
zephyr/7 bootloader 49152 1b76fb1fd9aeddc9 a69373200416bc9e
zephyr/7 ptable 256 411c38b60e3ebcb2 5e3440ff52959529
zephyr/7 kernel 920928 edcda59ec3f74566 30d8d0de12b3e2e3
pokos/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
pokos/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
pokos/1 kernel 1527200 d68121eb2332d000 1284e39d3ecf3bed
pokos/7 bootloader 49152 1b76fb1fd9aeddc9 a69373200416bc9e
pokos/7 ptable 256 411c38b60e3ebcb2 5e3440ff52959529
pokos/7 kernel 1527200 8b28a90b74059232 c9c9550b78feaddc
)");
}

// rtthread kernels never touch flash: a reflash campaign programs, boots, verifies and
// delta-reflashes its image by identity alone.
TEST(TouchBudgetTest, ReflashCampaignDrawsNoPayload) {
  ASSERT_TRUE(RegisterAllOses().ok());
  const uint64_t before = Payload::draws();
  Result<CampaignResult> result =
      EofFuzzer(CampaignConfig("rtthread", RestoreMode::kReflash, 500)).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execs, 500u);
  EXPECT_GT(result->restores, 0u);
  EXPECT_EQ(Payload::draws(), before);
}

// Snapshot captures and restores audit the flash shadow, and each first sighting is
// replayed on a fresh cold-booted board; none of it reads a payload byte.
TEST(TouchBudgetTest, SnapshotCampaignWithColdReplaysDrawsNoPayload) {
  ASSERT_TRUE(RegisterAllOses().ok());
  const uint64_t before = Payload::draws();
  Result<CampaignResult> result =
      EofFuzzer(CampaignConfig("rtthread", RestoreMode::kSnapshot, 500)).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->snapshot_restores, 0u);
  EXPECT_GE(result->bugs.size() + result->bugs_rejected, 1u);  // validator replays ran
  EXPECT_EQ(Payload::draws(), before);
}

// The freertos/1 lines of PayloadTest.BytesArePinned.
constexpr char kFreertosSeed1[] = R"(freertos/1 bootloader 49152 f6853affd0208566 0a9d87d5b1a4c477
freertos/1 ptable 256 4d094a9e31ee7731 83bcd1cef634eb13
freertos/1 kernel 3015200 81f39b9519f8735c 6a884c9d1966726a
)";

// A freertos campaign that fuzzes only the partition calls, which read and write flash.
FuzzerConfig PartitionCampaignConfig(RestoreMode mode, uint64_t max_execs) {
  FuzzerConfig config = CampaignConfig("freertos", mode, max_execs);
  config.gen.allowed_subsystems = {"partition"};
  return config;
}

// freertos' partition calls read flash, so its campaigns draw payloads: each at most
// once, however many boots, reads and reflashes follow. A fresh board of the same image
// reads the pinned bytes back over the debug port, again drawing each payload once.
TEST(TouchBudgetTest, FreertosPartitionCallsDrawEachPayloadAtMostOnce) {
  ASSERT_TRUE(RegisterAllOses().ok());
  const uint64_t before = Payload::draws();
  Result<CampaignResult> result =
      EofFuzzer(PartitionCampaignConfig(RestoreMode::kReflash, 500)).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const uint64_t drawn = Payload::draws() - before;
  EXPECT_GE(drawn, 1u);  // the campaign read flash
  EXPECT_LE(drawn, 3u);  // one image of three payloads

  DeployOptions options;
  options.os_name = "freertos";
  options.seed = 1;
  auto deployment = Deployment::Create(options);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  DebugPort& port = (*deployment)->port();
  const FirmwareImage& image = (*deployment)->image();
  const uint64_t deployed = Payload::draws();
  std::string lines;
  for (int pass = 0; pass < 2; ++pass) {
    lines.clear();
    for (const Partition& part : image.partition_table().partitions) {
      const FirmwareImage::Payload* payload = image.PayloadOf(part.name);
      if (payload == nullptr) {
        continue;
      }
      auto bytes = port.ReadMem((*deployment)->board_spec().flash_base + part.offset,
                                payload->size());
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      ByteReader header(*bytes);
      header.GetU32();  // magic
      const uint32_t len = header.GetU32();
      lines += StrFormat("freertos/1 %s %u %016llx %016llx\n", part.name.c_str(), len,
                         static_cast<unsigned long long>(Fnv1aBytes(bytes->data(), bytes->size())),
                         static_cast<unsigned long long>(header.GetU64()));
    }
    EXPECT_EQ(Payload::draws() - deployed, 3u) << "pass " << pass;
  }
  EXPECT_EQ(lines, kFreertosSeed1);
}

// Boards on four threads deploy one shared image and make their first reads of its
// kernel payload at once: one draw, and every board reads the same bytes.
TEST(ConcurrentDrawTest, SharedImageFirstReadsDrawOnce) {
  ASSERT_TRUE(RegisterAllOses().ok());
  DeployOptions options;
  options.os_name = "freertos";
  options.seed = 11;
  options.image = Deployment::BuildImageFor(options).value();
  const Partition* kernel = options.image->partition_table().Find("kernel");
  ASSERT_NE(kernel, nullptr);
  const uint64_t size = options.image->PayloadOf("kernel")->size();
  constexpr int kBoards = 4;
  std::latch ready(kBoards);
  std::vector<uint64_t> hashes(kBoards, 0);
  std::vector<Status> statuses(kBoards);
  const uint64_t before = Payload::draws();
  std::vector<std::thread> threads;
  for (int i = 0; i < kBoards; ++i) {
    threads.emplace_back([&, i] {
      auto deployment = Deployment::Create(options);
      ready.arrive_and_wait();
      if (!deployment.ok()) {
        statuses[i] = deployment.status();
        return;
      }
      auto bytes = (*deployment)->board().flash().Read(kernel->offset, size);
      statuses[i] = bytes.status();
      hashes[i] = bytes.ok() ? Fnv1aBytes(bytes->data(), bytes->size()) : 0;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(Payload::draws() - before, 1u);
  const std::vector<uint8_t>& pristine = options.image->PayloadOf("kernel")->bytes();
  for (int i = 0; i < kBoards; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(hashes[i], Fnv1aBytes(pristine.data(), pristine.size())) << i;
  }
}

// A four-board freertos farm on its partition calls, in snapshot mode: boards draw their
// images' payloads on their own threads, and the cold-boot validator replays sightings
// on fresh boards from the sighting board's thread.
TEST(ConcurrentDrawTest, FarmWithPartitionCalls) {
  ASSERT_TRUE(RegisterAllOses().ok());
  Result<CampaignResult> result =
      BoardFarm(PartitionCampaignConfig(RestoreMode::kSnapshot, 200), 4).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->execs, 800u);
}

}  // namespace
}  // namespace eof
