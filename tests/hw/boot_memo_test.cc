// Tests of the host-side flash shortcuts: the board's boot-ROM verdict is cached on the
// flash write count, so it must be invalidated by every flash write and every image
// change, and a flash checksum answered from the page mapping (DebugPort::FlashHolds)
// must cost the target exactly what a computed one does. VerifyFlash's in-place
// comparison is checked against the copy-then-parse reference it replaced. Boards
// deploying on many threads share one image's payload pages, and first boots on many
// threads build each OS's shared API table once (run under TSan in CI).

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "src/agent/agent_layout.h"
#include "src/common/byteio.h"
#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/core/deployment.h"
#include "src/core/image_builder.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/hw/timing.h"
#include "src/kernel/kernel_context.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

constexpr char kBoard[] = "esp32-devkitc";

std::shared_ptr<const FirmwareImage> BuildFreertos(uint64_t seed) {
  ImageBuildOptions options;
  options.os_name = "freertos";
  options.seed = seed;
  return BuildImage(BoardSpecByName(kBoard).value(), options).value();
}

void FlashPristine(Board& board, const FirmwareImage& image) {
  for (const Partition& part : image.partition_table().partitions) {
    const FirmwareImage::Payload* payload = image.PayloadOf(part.name);
    if (payload != nullptr) {
      ASSERT_TRUE(board.FlashWrite(part.offset, payload->bytes()).ok());
    }
  }
}

// Declared first so that it runs before any other test in this binary constructs an OS:
// four threads are each the first boot of every OS at once, then dispatch through the
// shared tables concurrently.
TEST(SharedApiTableTest, ConcurrentFirstBootsBuildOneTablePerOs) {
  ASSERT_TRUE(RegisterAllOses().ok());
  struct Probe {
    const char* os;
    const char* api;
    std::vector<uint64_t> scalars;
    int64_t expected;
  };
  const std::vector<Probe> probes = {
      {"freertos", "uxTaskGetNumberOfTasks", {}, 1},  // IDLE
      {"rtthread", "rt_object_get_length", {2}, 0},
      {"nuttx", "clock_getres", {0}, 10000000},
      {"zephyr", "sys_heap_runtime_stats_get", {}, 0},
      {"pokos", "pok_time_get", {}, 0},
  };
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::vector<const ApiRegistry*>> tables(kThreads);
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const Probe& probe : probes) {
        OsInfo info = OsRegistry::Instance().Find(probe.os).value();
        BoardSpec spec = BoardSpecByName(info.default_board).value();
        ImageBuildOptions options;
        options.os_name = probe.os;
        std::shared_ptr<const FirmwareImage> image = BuildImage(spec, options).value();
        Board board(spec);
        board.InstallImage(image);
        CovRingLayout ring;
        ring.ram_offset = kCovRingOffset;
        ring.capacity = CovRingCapacityFor(spec.ram_bytes);
        KernelContext ctx(board, *image, ring);
        std::unique_ptr<Os> os = info.factory();
        if (!os->Init(ctx).ok()) {
          failures[t] += StrFormat("%s: boot failed; ", probe.os);
          continue;
        }
        tables[t].push_back(&os->registry());
        std::vector<ArgValue> args(probe.scalars.size());
        for (size_t i = 0; i < args.size(); ++i) {
          args[i].scalar = probe.scalars[i];
        }
        for (int round = 0; round < 50; ++round) {
          Result<int64_t> result =
              os->CallApi(ctx, os->registry().FindByName(probe.api)->id, args);
          if (!result.ok() || result.value() != probe.expected) {
            failures[t] += StrFormat("%s: %s returned the wrong result; ", probe.os, probe.api);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
    EXPECT_EQ(tables[t], tables[0]) << "thread " << t;
  }
  EXPECT_EQ(tables[0].size(), probes.size());
}

class BootMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void SetUp() override {
    image_ = BuildFreertos(1);
    board_.InstallImage(image_);
    FlashPristine(board_, *image_);
    board_.Reset();
    ASSERT_EQ(board_.power_state(), PowerState::kRunning);
  }

  // What a kernel bug does: program one flipped byte inside the kernel payload
  // through the firmware-visible flash.
  void ScribbleKernel() {
    const Partition* kernel = image_->partition_table().Find("kernel");
    ASSERT_NE(kernel, nullptr);
    uint64_t offset = kernel->offset + 40;
    uint8_t byte = board_.flash().Read(offset, 1).value()[0];
    ASSERT_TRUE(board_.flash().Write(offset, {static_cast<uint8_t>(byte ^ 0x5a)}).ok());
  }

  std::shared_ptr<const FirmwareImage> image_;
  Board board_{BoardSpecByName(kBoard).value()};
};

TEST_F(BootMemoTest, ScribbleAfterGoodBootFailsResetAndWarmRestore) {
  board_.Reset();  // a second good boot: the verdict is now cached
  ASSERT_EQ(board_.power_state(), PowerState::kRunning);

  ScribbleKernel();
  board_.Reset();
  EXPECT_EQ(board_.power_state(), PowerState::kBootFailed);
  board_.WarmRestore();
  EXPECT_EQ(board_.power_state(), PowerState::kBootFailed);

  FlashPristine(board_, *image_);
  board_.WarmRestore();
  EXPECT_EQ(board_.power_state(), PowerState::kRunning);

  ScribbleKernel();
  board_.WarmRestore();
  EXPECT_EQ(board_.power_state(), PowerState::kBootFailed);
  board_.Reset();
  EXPECT_EQ(board_.power_state(), PowerState::kBootFailed);
}

TEST_F(BootMemoTest, ReflashingPristineBytesBootsAgain) {
  ScribbleKernel();
  board_.Reset();
  ASSERT_EQ(board_.power_state(), PowerState::kBootFailed);
  FlashPristine(board_, *image_);
  board_.Reset();
  EXPECT_EQ(board_.power_state(), PowerState::kRunning);
}

TEST_F(BootMemoTest, InstallingAnotherImageReverifies) {
  // Same layout, other build seed: every payload differs, and no flash write happens.
  std::shared_ptr<const FirmwareImage> other = BuildFreertos(2);
  board_.InstallImage(other);
  board_.Reset();
  EXPECT_EQ(board_.power_state(), PowerState::kBootFailed);
  board_.InstallImage(image_);
  board_.WarmRestore();
  EXPECT_EQ(board_.power_state(), PowerState::kRunning);
}

class FlashDigestTest : public BootMemoTest {
 protected:
  void SetUp() override {
    BootMemoTest::SetUp();
    port_.set_flight_recorder(&recorder_);
    ASSERT_TRUE(port_.Connect().ok());
    const Partition* kernel = image_->partition_table().Find("kernel");
    ASSERT_NE(kernel, nullptr);
    kernel_offset_ = kernel->offset;
    kernel_size_ = image_->PayloadOf("kernel")->size();
  }

  uint64_t KernelAddress() const { return board_.spec().flash_base + kernel_offset_; }

  DebugPort port_{&board_};
  telemetry::FlightRecorder recorder_;
  uint64_t kernel_offset_ = 0;
  uint64_t kernel_size_ = 0;
};

TEST_F(FlashDigestTest, ChecksumAfterFlashWriteReturnsTheNewDigest) {
  auto before = port_.ChecksumMem(KernelAddress(), kernel_size_);
  ASSERT_TRUE(before.ok());
  const std::vector<uint8_t>& pristine = image_->PayloadOf("kernel")->bytes();
  EXPECT_EQ(before.value(), ChecksumBytes(pristine.data(), pristine.size()));

  ASSERT_TRUE(board_.FlashWrite(kernel_offset_ + 100, {0x01, 0x02, 0x03}).ok());
  auto after = port_.ChecksumMem(KernelAddress(), kernel_size_);
  ASSERT_TRUE(after.ok());
  std::vector<uint8_t> stored = board_.flash().Read(kernel_offset_, kernel_size_).value();
  EXPECT_EQ(after.value(), ChecksumBytes(stored.data(), stored.size()));
  EXPECT_NE(after.value(), before.value());

  board_.flash().MassErase();
  auto erased = port_.ChecksumMem(KernelAddress(), kernel_size_);
  ASSERT_TRUE(erased.ok());
  std::vector<uint8_t> ones(kernel_size_, 0xff);
  EXPECT_EQ(erased.value(), ChecksumBytes(ones.data(), ones.size()));
}

// FlashHolds is the delta reflash's and the flash shadow's ChecksumMem: whether the host
// answers from the page mapping or by comparing bytes, the target pays what a
// ChecksumMem of the payload's range costs, and the flight ring records the same op.
TEST_F(FlashDigestTest, FlashHoldsCostsTheTargetWhatChecksumMemDoes) {
  struct Charge {
    VirtualDuration time;
    uint64_t transactions;
    uint64_t bytes_read;
    telemetry::PortOpRecord record;
  };
  auto charge = [&](auto ask) {
    const DebugPortStats stats = port_.stats();
    const VirtualTime start = port_.Now();
    ask();
    telemetry::FlightDump dump = recorder_.Dump("test", port_.Now());
    return Charge{port_.Now() - start, port_.stats().transactions - stats.transactions,
                  port_.stats().bytes_read - stats.bytes_read, dump.port_ops.back()};
  };
  const FirmwareImage::Payload& payload = *image_->PayloadOf("kernel");
  auto holds = [&](bool want) {
    return charge([&] { EXPECT_EQ(port_.FlashHolds(KernelAddress(), payload).value(), want); });
  };
  Charge checksum =
      charge([&] { EXPECT_TRUE(port_.ChecksumMem(KernelAddress(), kernel_size_).ok()); });
  Charge mapped = holds(true);  // answered from the page mapping
  ASSERT_TRUE(board_.FlashWrite(kernel_offset_ + 100, {0x07}).ok());
  Charge compared = holds(false);  // answered by comparing bytes
  board_.flash().MassErase();
  Charge erased = holds(false);  // answered from the erased pages
  EXPECT_EQ(checksum.time, ChecksumCost(kernel_size_));
  EXPECT_EQ(checksum.transactions, 1u);
  EXPECT_EQ(checksum.bytes_read, 8u);
  EXPECT_EQ(checksum.record.op, telemetry::FlightPortOp::kChecksum);
  for (const Charge& held : {mapped, compared, erased}) {
    EXPECT_EQ(held.time, checksum.time);
    EXPECT_EQ(held.transactions, checksum.transactions);
    EXPECT_EQ(held.bytes_read, checksum.bytes_read);
    EXPECT_EQ(held.record.op, checksum.record.op);
    EXPECT_EQ(held.record.address, checksum.record.address);
    EXPECT_EQ(held.record.size, checksum.record.size);
    EXPECT_EQ(held.record.ok, checksum.record.ok);
  }
}

// Boards on several threads deploy one shared image, then reflash, reboot and checksum
// it: their first writes draw the one payload they all map at once.
TEST(SharedImageTest, ConcurrentBoardsShareOnePayload) {
  ASSERT_TRUE(RegisterAllOses().ok());
  DeployOptions options;
  options.os_name = "freertos";
  options.image = Deployment::BuildImageFor(options).value();
  const Partition* kernel = options.image->partition_table().Find("kernel");
  ASSERT_NE(kernel, nullptr);
  const FirmwareImage::Payload* payload = options.image->PayloadOf("kernel");
  constexpr int kBoards = 4;
  std::vector<Status> statuses(kBoards);
  std::vector<uint64_t> digests(kBoards, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kBoards; ++i) {
    threads.emplace_back([&, i] {
      auto deployment = Deployment::Create(options);
      if (!deployment.ok()) {
        statuses[i] = deployment.status();
        return;
      }
      Board& board = (*deployment)->board();
      // A scribble makes the reflash program the kernel again.
      statuses[i] = board.FlashWrite(kernel->offset + 40, {0x00});
      if (statuses[i].ok()) {
        statuses[i] = (*deployment)->ReflashAndReboot();
      }
      if (statuses[i].ok()) {
        auto digest = (*deployment)->port().ChecksumMem(
            board.spec().flash_base + kernel->offset, payload->size());
        statuses[i] = digest.status();
        digests[i] = digest.ok() ? *digest : 0;
      }
      if (statuses[i].ok() && board.power_state() != PowerState::kRunning) {
        statuses[i] = InternalError("board did not boot");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const uint64_t pristine = ChecksumBytes(payload->bytes().data(), payload->size());
  for (int i = 0; i < kBoards; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(digests[i], pristine) << i;
  }
}

// The boot-ROM check as it stood before the in-place comparison: copy the stored
// bytes out, parse them (copying the body again), then compare with the payload.
Status CopyThenVerify(const FirmwareImage& image, const Flash& flash) {
  auto verify_payload = [](const std::vector<uint8_t>& bytes) -> Status {
    ByteReader reader(bytes);
    uint32_t magic = reader.GetU32();
    uint32_t len = reader.GetU32();
    uint64_t crc = reader.GetU64();
    if (reader.failed() || magic != 0xe0fb007u) {
      return DataLossError("bad payload magic");
    }
    if (len > reader.remaining()) {
      return DataLossError("truncated payload body");
    }
    std::vector<uint8_t> body(len);
    reader.GetBytes(body.data(), body.size());
    if (reader.failed() || ChecksumBytes(body.data(), body.size()) != crc) {
      return DataLossError("payload checksum mismatch");
    }
    return OkStatus();
  };
  for (const Partition& part : image.partition_table().partitions) {
    const FirmwareImage::Payload* payload = image.PayloadOf(part.name);
    if (payload == nullptr) {
      continue;
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> stored,
                     flash.Read(part.offset, payload->size()));
    Status valid = verify_payload(stored);
    if (!valid.ok()) {
      return DataLossError(StrFormat("partition '%s' failed boot validation: %s",
                                     part.name.c_str(), valid.ToString().c_str()));
    }
    if (stored != payload->bytes()) {
      return DataLossError(StrFormat("partition '%s' content mismatch", part.name.c_str()));
    }
  }
  return OkStatus();
}

void ExpectSameVerdict(const FirmwareImage& image, const Flash& flash, ErrorCode want) {
  Status now = image.VerifyFlash(flash);
  Status reference = CopyThenVerify(image, flash);
  EXPECT_EQ(now.code(), want) << now.ToString();
  EXPECT_EQ(now.code(), reference.code());
  EXPECT_EQ(now.ToString(), reference.ToString());
}

TEST(VerifyFlashTest, InPlaceVerdictMatchesCopyThenVerify) {
  FirmwareImage image;
  ASSERT_TRUE(image.AddPartition("boot", 0x0, 0x400, 200, 5).ok());
  ASSERT_TRUE(image.AddPartition("kernel", 0x1000, 0x1000, 1024, 5).ok());
  ASSERT_TRUE(image.AddRawPartition("nvs", 0x3000, 0x100).ok());
  const std::vector<uint8_t>& kernel = image.PayloadOf("kernel")->bytes();
  auto fresh_flash = [&image]() {
    Flash flash(0x4000);
    for (const char* name : {"boot", "kernel"}) {
      const Partition* part = image.partition_table().Find(name);
      EXPECT_TRUE(flash.Write(part->offset, image.PayloadOf(name)->bytes()).ok());
    }
    return flash;
  };

  Flash pristine = fresh_flash();
  ExpectSameVerdict(image, pristine, ErrorCode::kOk);

  Flash erased(0x4000);  // nothing flashed: the first partition's magic is 0xffffffff
  ExpectSameVerdict(image, erased, ErrorCode::kDataLoss);

  Flash bad_magic = fresh_flash();
  ASSERT_TRUE(bad_magic.Write(0x1000, {0x00}).ok());
  ExpectSameVerdict(image, bad_magic, ErrorCode::kDataLoss);

  Flash truncated = fresh_flash();  // length word claims more than the payload holds
  ASSERT_TRUE(truncated.Write(0x1000 + 4, {0xff, 0xff, 0x00, 0x00}).ok());
  ExpectSameVerdict(image, truncated, ErrorCode::kDataLoss);

  Flash bad_crc = fresh_flash();
  ASSERT_TRUE(bad_crc.Write(0x1000 + 16 + 7, {static_cast<uint8_t>(kernel[16 + 7] ^ 1)}).ok());
  ExpectSameVerdict(image, bad_crc, ErrorCode::kDataLoss);

  // A well-formed payload of the right size, but another build's body.
  Flash foreign = fresh_flash();
  std::vector<uint8_t> other = FirmwareImage::MakePayload("kernel", 6, 1024);
  ASSERT_EQ(other.size(), kernel.size());
  ASSERT_TRUE(FirmwareImage::VerifyPayload(other).ok());
  ASSERT_TRUE(foreign.Write(0x1000, other).ok());
  ExpectSameVerdict(image, foreign, ErrorCode::kDataLoss);

  // A payload that does not fit the flash at all: both report the read's bounds error.
  Flash tiny(0x1100);
  ASSERT_TRUE(tiny.Write(0x0, image.PayloadOf("boot")->bytes()).ok());
  ExpectSameVerdict(image, tiny, ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace eof
