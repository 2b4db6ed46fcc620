// Unit tests for the hardware substrate: flash + partitions, UART loss semantics, symbol
// tables, image payload validation, board lifecycle/fault latching, and the debug port's
// cost accounting and timeout behaviour.

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/hw/image.h"
#include "src/hw/timing.h"

namespace eof {
namespace {

TEST(FlashTest, WriteReadErase) {
  Flash flash(4096);
  ASSERT_TRUE(flash.Write(16, {1, 2, 3}).ok());
  auto read = flash.Read(16, 3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(flash.Write(4095, {1, 2}).ok());
  flash.MassErase();
  EXPECT_EQ(flash.Read(16, 1).value()[0], 0xff);
}

TEST(FlashTest, HugeLengthsCannotWrapTheBoundsCheck) {
  Flash flash(4096);
  // offset + size wraps to 7, which a sum-based check would let through.
  const uint64_t huge = UINT64_MAX - 8;
  EXPECT_EQ(flash.Read(16, huge).status().code(), ErrorCode::kOutOfRange);
  const uint8_t byte = 0;
  EXPECT_EQ(flash.Equals(16, &byte, huge).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Digest(16, huge).status().code(), ErrorCode::kOutOfRange);
  // A write cannot carry UINT64_MAX - 8 bytes, so wrap it from the offset side.
  EXPECT_EQ(flash.Write(huge, std::vector<uint8_t>(16, 0xaa)).code(), ErrorCode::kOutOfRange);
  auto payload = std::make_shared<const Payload>("run", 1, 0);  // a 16-byte header
  EXPECT_EQ(flash.Program(huge, payload).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Program(4096 - 15, payload).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Holds(huge, *payload).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Holds(4096 - 15, *payload).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Read(huge, 16).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.write_count(), 0u);
  // The edges still work.
  EXPECT_TRUE(flash.Write(4096, {}).ok());
  EXPECT_TRUE(flash.Read(4096, 0).ok());
  EXPECT_TRUE(flash.Write(4095, {1}).ok());
  EXPECT_FALSE(flash.Read(4097, 0).ok());
}

// Flash against a flat model that starts erased: seeded random writes, programs and
// erases, each followed by reads, comparisons, digests and holds-payload queries of
// random ranges. Page sharing must never show through any of them.
TEST(FlashTest, MatchesAFlatModel) {
  constexpr uint64_t kPage = Flash::kPageBytes;
  constexpr uint64_t kSize = 6 * kPage + 1000;  // a short last page
  Rng rng(17);
  auto random_bytes = [&rng](uint64_t size) {
    std::vector<uint8_t> bytes(size);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    return bytes;
  };
  // Payloads to program: whole pages, a partial tail page, one that fills the device's
  // short last page when programmed at 5 pages, and a bare header. The model copies from
  // `pristine`, drawn by another payload of the same (name, seed, size), so a write
  // through a shared page shows as a mismatch.
  std::vector<std::shared_ptr<const Payload>> payloads;
  std::vector<std::vector<uint8_t>> pristine;
  for (uint64_t size : {2 * kPage, 2 * kPage + 100, kPage + 1000, Payload::kHeaderBytes}) {
    const std::string name = StrFormat("p%zu", payloads.size());
    const uint64_t body = size - Payload::kHeaderBytes;
    payloads.push_back(std::make_shared<const Payload>(name, 3, body));
    pristine.push_back(Payload(name, 3, body).bytes());
  }
  Flash flash(kSize);
  std::vector<uint8_t> model(kSize, 0xff);
  auto model_holds = [&](size_t i, uint64_t offset) {
    return std::equal(pristine[i].begin(), pristine[i].end(),
                      model.begin() + static_cast<std::ptrdiff_t>(offset));
  };
  auto check_range = [&](uint64_t offset, uint64_t size) {
    SCOPED_TRACE(StrFormat("range [%llu, +%llu)", static_cast<unsigned long long>(offset),
                           static_cast<unsigned long long>(size)));
    const std::vector<uint8_t> want(model.begin() + static_cast<std::ptrdiff_t>(offset),
                                    model.begin() + static_cast<std::ptrdiff_t>(offset + size));
    EXPECT_EQ(flash.Read(offset, size).value(), want);
    EXPECT_TRUE(flash.Equals(offset, want.data(), size).value());
    if (size != 0) {
      std::vector<uint8_t> flipped = want;
      flipped[rng.Below(size)] ^= 0x01;
      EXPECT_FALSE(flash.Equals(offset, flipped.data(), size).value());
    }
    EXPECT_EQ(flash.Digest(offset, size).value(), ChecksumBytes(want.data(), size));
    const size_t i = rng.Index(payloads.size());
    if (offset + payloads[i]->size() <= kSize) {
      EXPECT_EQ(flash.Holds(offset, *payloads[i]).value(), model_holds(i, offset)) << "p" << i;
    }
  };
  uint64_t writes = 0;
  size_t last = 0;
  uint64_t last_offset = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(step);
    const uint64_t pick = rng.Below(10);
    if (pick < 5) {  // an unaligned write of up to 2.5 pages, sometimes empty
      const uint64_t size = rng.Chance(1, 10) ? 0 : rng.Range(1, 5 * kPage / 2);
      const uint64_t offset = rng.Below(kSize - size + 1);
      const std::vector<uint8_t> data = random_bytes(size);
      ASSERT_TRUE(flash.Write(offset, data).ok());
      std::copy(data.begin(), data.end(), model.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (pick < 9) {  // a program, sometimes the last one again
      if (!rng.Chance(1, 4)) {
        last = rng.Index(payloads.size());
        const uint64_t size = payloads[last]->size();
        last_offset = rng.CoinFlip() ? rng.Below((kSize - size) / kPage + 1) * kPage
                                     : rng.Below(kSize - size + 1);
      }
      const std::vector<uint8_t>& bytes = pristine[last];
      ASSERT_TRUE(flash.Program(last_offset, payloads[last]).ok());
      std::copy(bytes.begin(), bytes.end(),
                model.begin() + static_cast<std::ptrdiff_t>(last_offset));
      EXPECT_TRUE(flash.Holds(last_offset, *payloads[last]).value());
      EXPECT_TRUE(flash.Equals(last_offset, bytes.data(), bytes.size()).value());
      EXPECT_EQ(flash.Digest(last_offset, bytes.size()).value(),
                ChecksumBytes(bytes.data(), bytes.size()));
    } else {
      flash.MassErase();
      std::fill(model.begin(), model.end(), 0xff);
    }
    EXPECT_EQ(flash.write_count(), ++writes);
    EXPECT_EQ(flash.Holds(last_offset, *payloads[last]).value(), model_holds(last, last_offset));
    check_range(0, kSize);
    for (int i = 0; i < 4; ++i) {
      const uint64_t size = rng.Chance(1, 8) ? 0 : rng.Range(1, 3 * kPage);
      check_range(rng.Below(kSize - size + 1), size);
    }
  }
}

// A board keeps the pages of a payload it programmed after its image is replaced and
// dropped; ASan reports a use after free if the flash stops co-owning them.
TEST(FlashTest, ProgrammedPagesOutliveTheirImage) {
  auto build = [](uint64_t seed) {
    auto image = std::make_shared<FirmwareImage>();
    EXPECT_TRUE(image->AddPartition("kernel", 0x1000, 0x4000, 3 * Flash::kPageBytes, seed).ok());
    return std::shared_ptr<const FirmwareImage>(std::move(image));
  };
  std::shared_ptr<const FirmwareImage> first = build(1);
  std::shared_ptr<const FirmwareImage> second = build(2);
  const std::vector<uint8_t> pristine = first->PayloadOf("kernel")->bytes();
  Board board(BoardSpecByName("esp32-devkitc").value());
  board.InstallImage(first);
  ASSERT_TRUE(board.FlashProgram(0x1000, *first->PayloadOf("kernel")).ok());
  // Only the installed image's payloads can be programmed.
  EXPECT_EQ(board.FlashProgram(0x1000, *second->PayloadOf("kernel")).code(),
            ErrorCode::kFailedPrecondition);

  board.InstallImage(second);
  std::weak_ptr<const FirmwareImage> watch = first;
  first.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(board.flash().Read(0x1000, pristine.size()).value(), pristine);
  EXPECT_FALSE(second->VerifyFlash(board.flash()).ok());
  // Once no page maps the first payload, the next program lets go of it.
  ASSERT_TRUE(board.FlashProgram(0x1000, *second->PayloadOf("kernel")).ok());
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(second->VerifyFlash(board.flash()).ok());
}

TEST(PartitionTableTest, ValidationRejectsOverlapAndOverflow) {
  PartitionTable table;
  table.partitions = {{"a", 0, 100}, {"b", 100, 100}};
  EXPECT_TRUE(table.Validate(200).ok());
  EXPECT_FALSE(table.Validate(150).ok());  // b overflows
  table.partitions.push_back({"c", 50, 100});
  EXPECT_FALSE(table.Validate(1000).ok());  // c overlaps a and b
  EXPECT_NE(table.Find("a"), nullptr);
  EXPECT_EQ(table.Find("zzz"), nullptr);
}

TEST(PartitionTableTest, HugeOffsetsCannotWrapTheChecks) {
  constexpr uint64_t kFourMiB = 4 << 20;
  PartitionTable table;
  // offset + size wraps to 9, which a sum-based bounds check would let through.
  table.partitions = {{"wrap", UINT64_MAX - 10, 20}};
  EXPECT_EQ(table.Validate(kFourMiB).code(), ErrorCode::kOutOfRange);
  // Ends exactly at 2^64: one byte past a UINT64_MAX-byte flash.
  table.partitions = {{"top", UINT64_MAX - 9, 10}};
  EXPECT_EQ(table.Validate(UINT64_MAX).code(), ErrorCode::kOutOfRange);
  table.partitions = {{"top", UINT64_MAX - 9, 9}};
  EXPECT_TRUE(table.Validate(UINT64_MAX).ok());
  // Overlap near the top of the address space, where end offsets come close to wrapping.
  table.partitions = {{"low", UINT64_MAX - 20, 14}, {"high", UINT64_MAX - 6, 6}};
  EXPECT_TRUE(table.Validate(UINT64_MAX).ok());
  table.partitions.push_back({"mid", UINT64_MAX - 8, 4});
  EXPECT_EQ(table.Validate(UINT64_MAX).code(), ErrorCode::kInvalidArgument);
  table.partitions = {{"high", UINT64_MAX - 6, 6}, {"low", UINT64_MAX - 20, 14}};
  EXPECT_TRUE(table.Validate(UINT64_MAX).ok());
  table.partitions.push_back({"low2", UINT64_MAX - 7, 1});
  EXPECT_EQ(table.Validate(UINT64_MAX).code(), ErrorCode::kInvalidArgument);
}

TEST(UartTest, DrainAndFreeze) {
  Uart uart(64);
  uart.WriteLine("boot ok");
  EXPECT_EQ(uart.Drain(), "boot ok\n");
  EXPECT_EQ(uart.Drain(), "");
  uart.WriteLine("crash imminent");
  uart.Freeze();
  uart.WriteLine("lost");
  EXPECT_EQ(uart.Drain(), "crash imminent\n");
  EXPECT_GT(uart.dropped_bytes(), 0u);
}

TEST(UartTest, CapacityKeepsOldest) {
  Uart uart(8);
  uart.Write("12345678ABC");
  EXPECT_EQ(uart.Drain(), "12345678");
  EXPECT_EQ(uart.dropped_bytes(), 3u);
}

TEST(SymbolTableTest, AddLookupContaining) {
  SymbolTable symbols;
  ASSERT_TRUE(symbols.Add("executor_main", 0x1000, 0x40).ok());
  EXPECT_FALSE(symbols.Add("executor_main", 0x2000, 0x40).ok());
  EXPECT_FALSE(symbols.Add("overlap", 0x1020, 0x40).ok());
  EXPECT_EQ(symbols.AddressOf("executor_main").value(), 0x1000u);
  EXPECT_FALSE(symbols.AddressOf("missing").ok());
  EXPECT_EQ(symbols.Containing(0x1008), "executor_main");
  EXPECT_EQ(symbols.Containing(0x2000), "");
}

TEST(ImageTest, PayloadRoundTripAndCorruptionDetection) {
  std::vector<uint8_t> payload = FirmwareImage::MakePayload("kernel", 1, 512);
  EXPECT_TRUE(FirmwareImage::VerifyPayload(payload).ok());
  payload[40] ^= 0xff;
  EXPECT_FALSE(FirmwareImage::VerifyPayload(payload).ok());
}

TEST(ImageTest, AddPartitionChecksSizesBeforeDrawing) {
  FirmwareImage image;
  // 1 TiB fits the partition but not the header's u32 length; it must fail before any
  // allocation (under ASan, allocating it aborts).
  Status huge = image.AddPartition("k", 0, UINT64_MAX, uint64_t{1} << 40, 1);
  EXPECT_EQ(huge.code(), ErrorCode::kInvalidArgument) << huge.ToString();
  EXPECT_EQ(image.AddPartition("k", 0, UINT64_MAX, uint64_t{UINT32_MAX} + 1, 1).code(),
            ErrorCode::kInvalidArgument);
  // A body that would wrap header + body past zero.
  EXPECT_EQ(image.AddPartition("k", 0, 64, UINT64_MAX - 8, 1).code(),
            ErrorCode::kInvalidArgument);
  // The 16-byte header counts against the partition: 48 + 16 fits 64 exactly, 49 does not.
  EXPECT_EQ(image.AddPartition("k", 0, 64, 49, 1).ToString(),
            "INVALID_ARGUMENT: payload for 'k' (65 bytes) exceeds partition size 64");
  EXPECT_EQ(image.PayloadOf("k"), nullptr);
  EXPECT_TRUE(image.partition_table().partitions.empty());
  ASSERT_TRUE(image.AddPartition("k", 0, 64, 48, 1).ok());
  EXPECT_EQ(image.PayloadOf("k")->size(), 64u);
  // Size errors win over the duplicate name.
  EXPECT_EQ(image.AddPartition("k", 64, 64, 49, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(image.AddPartition("k", 64, 64, 48, 1).code(), ErrorCode::kAlreadyExists);
}

TEST(ImageTest, FlashVerification) {
  FirmwareImage image;
  ASSERT_TRUE(image.AddPartition("kernel", 0x100, 0x1000, 256, 5).ok());
  ASSERT_TRUE(image.AddRawPartition("nvs", 0x2000, 0x100).ok());
  Flash flash(16384);
  EXPECT_FALSE(image.VerifyFlash(flash).ok());  // nothing flashed
  ASSERT_TRUE(flash.Write(0x100, image.PayloadOf("kernel")->bytes()).ok());
  EXPECT_TRUE(image.VerifyFlash(flash).ok());
  // nvs is a raw partition: scribbling there must NOT fail validation.
  ASSERT_TRUE(flash.Write(0x2000, {0xaa, 0xbb}).ok());
  EXPECT_TRUE(image.VerifyFlash(flash).ok());
  // kernel corruption must.
  ASSERT_TRUE(flash.Write(0x120, {0x00}).ok());
  EXPECT_FALSE(image.VerifyFlash(flash).ok());
}

TEST(ImageTest, ModuleLayoutsAndCodeSpace) {
  FirmwareImage image;
  image.set_code_base(0x10000);
  auto http = image.AddModule("apps/http", 64);
  ASSERT_TRUE(http.ok());
  auto json = image.AddModule("apps/json", 32);
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(image.AddModule("apps/http", 8).ok());
  EXPECT_EQ(http.value().base, 0x10000u);
  EXPECT_EQ(json.value().base, 0x10000u + 64 * kBasicBlockStride);
  EXPECT_TRUE(image.InCodeSpace(http.value().base + 8));
  EXPECT_FALSE(image.InCodeSpace(0x10000 + 96 * kBasicBlockStride));
  uint64_t bb = FirmwareImage::BasicBlockAddress(http.value(), 12345);
  EXPECT_TRUE(image.InCodeSpace(bb));
}

TEST(InstrumentationOptionsTest, ModuleFilter) {
  InstrumentationOptions options;
  EXPECT_TRUE(options.Covers("freertos/queue"));
  options.module_filter = {"apps/"};
  EXPECT_TRUE(options.Covers("apps/json"));
  EXPECT_FALSE(options.Covers("freertos/queue"));
  options.enabled = false;
  EXPECT_FALSE(options.Covers("apps/json"));
}

TEST(BoardCatalogTest, KnownBoards) {
  EXPECT_GE(KnownBoardNames().size(), 6u);
  auto esp32 = BoardSpecByName("esp32-devkitc");
  ASSERT_TRUE(esp32.ok());
  EXPECT_EQ(esp32.value().arch, Arch::kXtensa);
  EXPECT_EQ(esp32.value().max_hw_breakpoints, 2);
  EXPECT_FALSE(esp32.value().emulated);
  auto qemu = BoardSpecByName("qemu-virt-arm");
  ASSERT_TRUE(qemu.ok());
  EXPECT_TRUE(qemu.value().emulated);
  EXPECT_TRUE(qemu.value().peripherals.empty());
  EXPECT_FALSE(BoardSpecByName("imaginary").ok());
}

class BoardTest : public ::testing::Test {
 protected:
  BoardTest() : board_(BoardSpecByName("stm32f407-disco").value()) {}
  Board board_;
};

TEST_F(BoardTest, RamAccessAndBounds) {
  ASSERT_TRUE(board_.RamWrite(0x100, {9, 8, 7}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(board_.RamReadInto(0x100, 3, &read).ok());
  EXPECT_EQ(read, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_FALSE(board_.RamReadInto(board_.spec().ram_bytes - 1, 2, &read).ok());
  ASSERT_TRUE(board_.RamWriteU32(0x200, 0xcafef00d).ok());
  EXPECT_EQ(board_.RamReadU32(0x200).value(), 0xcafef00du);
}

TEST_F(BoardTest, ResetWithoutImageIsOff) {
  board_.Reset();
  EXPECT_EQ(board_.power_state(), PowerState::kOff);
  EXPECT_EQ(board_.Continue().reason, HaltReason::kPoweredOff);
}

TEST_F(BoardTest, FaultLatchFreezesPc) {
  board_.LatchFault(0xdead00, "test fault");
  EXPECT_EQ(board_.power_state(), PowerState::kFaulted);
  uint64_t pc1 = board_.ReadPC();
  StopInfo stop = board_.Continue();
  EXPECT_EQ(stop.reason, HaltReason::kQuantumExpired);
  EXPECT_EQ(board_.ReadPC(), pc1);  // frozen
  EXPECT_TRUE(board_.uart().frozen());
}

TEST_F(BoardTest, HardwareBreakpointBudget) {
  // bb-space breakpoints need an installed image; program-point (sw) ones do not.
  auto image = std::make_shared<FirmwareImage>();
  image->set_code_base(0x20000);
  (void)image->AddModule("m", 64);
  board_.InstallImage(image);
  int budget = board_.spec().max_hw_breakpoints;
  for (int i = 0; i < budget; ++i) {
    EXPECT_TRUE(board_.AddBreakpoint(0x20000 + static_cast<uint64_t>(i) * 16).ok());
  }
  EXPECT_FALSE(board_.AddBreakpoint(0x20000 + 1000 * 16 % (64 * 16)).ok());
  // Software breakpoints remain unlimited.
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(board_.AddBreakpoint(0x900000 + i * 4).ok());
  }
}

TEST(DebugPortTest, RequiresAttachAndTimesOutWhenSevered) {
  Board board(BoardSpecByName("stm32f407-disco").value());
  DebugPort port(&board);
  EXPECT_FALSE(port.ReadPC().ok());  // not attached
  ASSERT_TRUE(port.Connect().ok());

  port.InjectLinkFailure(true);
  VirtualTime before = port.Now();
  auto pc = port.ReadPC();
  EXPECT_FALSE(pc.ok());
  EXPECT_EQ(pc.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(port.Now() - before, kLinkTimeout);  // the timeout burns link-timeout time
  EXPECT_EQ(port.stats().timeouts, 1u);

  port.InjectLinkFailure(false);
  // Run-control still times out (the core never booted), but link-level operations
  // (breakpoint units) are serviced again.
  EXPECT_TRUE(port.SetBreakpoint(0x1000).ok());
}

TEST(DebugPortTest, MemoryWindowsAndCosts) {
  Board board(BoardSpecByName("stm32f407-disco").value());
  // Give the core a live state so memory ops are serviced.
  DebugPort port(&board);
  ASSERT_TRUE(port.Connect().ok());
  // Never-booted board: run-control and memory requests time out (watchdog #1 surface).
  EXPECT_FALSE(port.ReadMem(board.spec().ram_base, 16).ok());
}

TEST(DebugPortTest, NoDebugPortBoardRefusesConnection) {
  BoardSpec spec = BoardSpecByName("stm32f407-disco").value();
  spec.has_debug_port = false;
  Board board(spec);
  DebugPort port(&board);
  EXPECT_EQ(port.Connect().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace eof
