// Tests of page-granular RAM: the board's dirty-page bitmap (a clear bit means the page
// is all zero, so a boot only zeroes dirty pages), the sparse RamPages copy snapshots
// keep, DebugPort::WriteRam's price/apply split, and the wrap-proof bounds checks of
// every RAM accessor and debug-port window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/image_builder.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/hw/timing.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

bool AllZero(const std::vector<uint8_t>& bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](uint8_t byte) { return byte == 0; });
}

// RAM bytes [offset, offset + size) of `board`; the range must be in bounds.
std::vector<uint8_t> RamBytes(const Board& board, uint64_t offset, uint64_t size) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(board.RamReadInto(offset, size, &out).ok());
  return out;
}

uint64_t PageCount(uint64_t ram_bytes) {
  return (ram_bytes + kRamPageBytes - 1) / kRamPageBytes;
}

// The dirty-bit invariant: every page whose bit is clear is all zero.
void ExpectCleanPagesZero(const Board& board) {
  const uint64_t ram_bytes = board.spec().ram_bytes;
  for (uint64_t page = 0; page < PageCount(ram_bytes); ++page) {
    if (!board.RamPageDirty(page)) {
      const uint64_t offset = page * kRamPageBytes;
      const uint64_t size = std::min(kRamPageBytes, ram_bytes - offset);
      ASSERT_TRUE(AllZero(RamBytes(board, offset, size))) << "clean page " << page;
    }
  }
}

// A RAM of 70 pages and a 100-byte tail: two bitmap words and a short last page.
BoardSpec OddRamSpec() {
  BoardSpec spec = BoardSpecByName("stm32f407-disco").value();
  spec.ram_bytes = 70 * kRamPageBytes + 100;
  return spec;
}

// Random RamWrite/U32/U64 and boot sequences leave RAM byte-identical to a reference
// that zeroes all of RAM on every boot, and the invariant holds after every step.
TEST(RamPagesTest, BootZeroesLikeAFullWipe) {
  Board board(OddRamSpec());
  const uint64_t ram_bytes = board.spec().ram_bytes;
  std::vector<uint8_t> reference(ram_bytes, 0);
  Rng rng(1234);
  for (int step = 0; step < 3000; ++step) {
    // Offsets cluster around page boundaries (and run past the end of RAM) so writes
    // straddle pages and probe the last, short page.
    const uint64_t page = rng.Below(PageCount(ram_bytes) + 1);
    const uint64_t offset = page * kRamPageBytes + rng.Below(24) - 12 * (page > 0);
    const uint64_t value = rng.CoinFlip() ? 0 : rng.Next();
    const uint64_t action = rng.Below(16);
    std::vector<uint8_t> bytes;
    Status status;
    if (action == 0) {
      board.Reset();  // no image installed: boots to kOff, RAM wiped all the same
      std::fill(reference.begin(), reference.end(), 0);
      ExpectCleanPagesZero(board);
      for (uint64_t p = 0; p < PageCount(ram_bytes); ++p) {
        ASSERT_FALSE(board.RamPageDirty(p));
      }
      continue;
    } else if (action < 6) {
      bytes.resize(rng.Below(3 * kRamPageBytes));
      for (uint8_t& byte : bytes) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      status = board.RamWrite(offset, bytes);
    } else if (action < 11) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
      }
      status = board.RamWriteU32(offset, static_cast<uint32_t>(value));
    } else {
      for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
      }
      status = board.RamWriteU64(offset, value);
    }
    const bool fits = offset <= ram_bytes && bytes.size() <= ram_bytes - offset;
    ASSERT_EQ(status.ok(), fits) << "step " << step;
    if (fits) {
      std::copy(bytes.begin(), bytes.end(),
                reference.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    ASSERT_EQ(RamBytes(board, 0, ram_bytes), reference) << "step " << step;
    ExpectCleanPagesZero(board);
  }
}

TEST(RamPagesTest, AppendNonZeroKeepsOnlyNonZeroPages) {
  const uint64_t ram_bytes = 4 * kRamPageBytes + 10;
  std::vector<uint8_t> ram(ram_bytes, 0);
  ram[kRamPageBytes + 5] = 1;
  ram[ram_bytes - 1] = 2;  // in the short last page
  RamPages pages;
  pages.ram_bytes = ram_bytes;
  pages.AppendNonZero(0, ram);
  EXPECT_EQ(pages.pages, (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(pages.bytes.size(), kRamPageBytes + 10);
  EXPECT_EQ(pages.bytes[5], 1);
  EXPECT_EQ(pages.bytes.back(), 2);
  EXPECT_EQ(pages.Expand(), ram);
}

TEST(RamPagesTest, PokeRelistsNonZeroPages) {
  RamPages pages;
  pages.ram_bytes = 8 * kRamPageBytes + 10;
  // A write straddling pages 5 and 6, then one into the short last page, then one
  // that lands before every page listed so far.
  ASSERT_TRUE(pages.Poke(6 * kRamPageBytes - 2, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(pages.Poke(8 * kRamPageBytes + 9, {5}).ok());
  ASSERT_TRUE(pages.Poke(7, {6}).ok());
  EXPECT_EQ(pages.pages, (std::vector<uint64_t>{0, 5, 6, 8}));
  ASSERT_EQ(pages.bytes.size(), 3 * kRamPageBytes + 10);
  EXPECT_EQ(pages.bytes[7], 6);
  EXPECT_EQ(pages.bytes[2 * kRamPageBytes - 2], 1);
  EXPECT_EQ(pages.bytes[2 * kRamPageBytes - 1], 2);
  EXPECT_EQ(pages.bytes[2 * kRamPageBytes], 3);
  EXPECT_EQ(pages.bytes[2 * kRamPageBytes + 1], 4);
  EXPECT_EQ(pages.bytes.back(), 5);
  // A poke into an already listed page adds nothing; zeroing a page unlists it.
  ASSERT_TRUE(pages.Poke(6 * kRamPageBytes + 100, {7}).ok());
  EXPECT_EQ(pages.pages.size(), 4u);
  ASSERT_TRUE(pages.Poke(7, {0}).ok());
  EXPECT_EQ(pages.pages, (std::vector<uint64_t>{5, 6, 8}));
  EXPECT_EQ(pages.Poke(8 * kRamPageBytes + 10, {1}).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(pages.Poke(UINT64_MAX - 1, {1, 2, 3}).code(), ErrorCode::kOutOfRange);
}

TEST(RamPagesTest, LoadRamTouchesOnlyListedAndDirtyPages) {
  Board board(OddRamSpec());
  const uint64_t ram_bytes = board.spec().ram_bytes;
  ASSERT_TRUE(board.RamWriteU32(3 * kRamPageBytes, 0xdeadbeef).ok());  // dirty, unlisted
  ASSERT_TRUE(board.RamWriteU32(9 * kRamPageBytes, 0x01020304).ok());  // dirty and listed
  RamPages image;
  image.ram_bytes = ram_bytes;
  ASSERT_TRUE(image.Poke(9 * kRamPageBytes + 8, {9}).ok());
  ASSERT_TRUE(image.Poke(ram_bytes - 1, {7}).ok());
  board.LoadRam(image);

  std::vector<uint8_t> expected(ram_bytes, 0);
  expected[9 * kRamPageBytes + 8] = 9;
  expected[ram_bytes - 1] = 7;
  EXPECT_EQ(RamBytes(board, 0, ram_bytes), expected);
  for (uint64_t page = 0; page < PageCount(ram_bytes); ++page) {
    EXPECT_EQ(board.RamPageDirty(page), page == 9 || page == 70) << "page " << page;
  }
}

// Offsets near UINT64_MAX and sizes that wrap the sum past a sum-based check.
const uint64_t kWrappingOffsets[] = {UINT64_MAX, UINT64_MAX - 1, UINT64_MAX - 3,
                                     UINT64_MAX - 7};

TEST(RamBoundsTest, BoardAccessorsRejectWrappingRanges) {
  Board board(BoardSpecByName("stm32f407-disco").value());
  const uint64_t ram_bytes = board.spec().ram_bytes;
  std::vector<uint8_t> read;
  for (uint64_t offset : kWrappingOffsets) {
    EXPECT_EQ(board.RamWrite(offset, {1, 2, 3, 4, 5, 6, 7, 8, 9}).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(board.RamReadInto(offset, 9, &read).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(board.RamWriteU32(offset, 0xffffffff).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(board.RamWriteU64(offset, UINT64_MAX).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(board.RamReadU32(offset).status().code(), ErrorCode::kOutOfRange);
  }
  EXPECT_EQ(board.RamReadInto(16, UINT64_MAX - 8, &read).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(board.RamReadInto(ram_bytes, UINT64_MAX, &read).code(), ErrorCode::kOutOfRange);
  // Nothing was written and no page was marked.
  EXPECT_TRUE(AllZero(RamBytes(board, 0, ram_bytes)));
  for (uint64_t page = 0; page < PageCount(ram_bytes); ++page) {
    EXPECT_FALSE(board.RamPageDirty(page));
  }
  // The edges still work.
  EXPECT_TRUE(board.RamWriteU32(ram_bytes - 4, 1).ok());
  EXPECT_TRUE(board.RamWriteU64(ram_bytes - 8, 1).ok());
  EXPECT_TRUE(board.RamReadU32(ram_bytes - 4).ok());
  EXPECT_TRUE(board.RamReadInto(ram_bytes, 0, &read).ok());
  EXPECT_TRUE(board.RamWrite(ram_bytes, {}).ok());
  EXPECT_FALSE(board.RamReadInto(ram_bytes + 1, 0, &read).ok());
}

class BootedPortTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  void SetUp() override {
    ImageBuildOptions options;
    options.os_name = "freertos";
    options.seed = 1;
    auto image = BuildImage(board_.spec(), options).value();
    board_.InstallImage(image);
    for (const Partition& part : image->partition_table().partitions) {
      const FirmwareImage::Payload* payload = image->PayloadOf(part.name);
      if (payload != nullptr) {
        ASSERT_TRUE(board_.FlashWrite(part.offset, payload->bytes()).ok());
      }
    }
    board_.Reset();
    ASSERT_EQ(board_.power_state(), PowerState::kRunning);
    ASSERT_TRUE(port_.Connect().ok());
  }

  Board board_{BoardSpecByName("esp32-devkitc").value()};
  DebugPort port_{&board_};
};

TEST_F(BootedPortTest, WindowsRejectWrappingRanges) {
  const BoardSpec& spec = board_.spec();
  const std::vector<uint8_t> before = RamBytes(board_, 0, spec.ram_bytes);
  for (uint64_t address : kWrappingOffsets) {
    EXPECT_EQ(port_.ReadMem(address, 16).status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(port_.WriteMem(address, std::vector<uint8_t>(16, 0xaa)).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(port_.ChecksumMem(address, 16).status().code(), ErrorCode::kOutOfRange);
    std::vector<PortOp> plan = {PortOp::Read(spec.ram_base, 4),
                                PortOp::SubU32(address, /*operand_op=*/0, 0)};
    EXPECT_EQ(port_.RunBatch(&plan).code(), ErrorCode::kOutOfRange);
    plan = {PortOp::Write(address, std::vector<uint8_t>(16, 0xaa))};
    EXPECT_EQ(port_.RunBatch(&plan).code(), ErrorCode::kOutOfRange);
  }
  // Huge sizes from inside either window.
  EXPECT_EQ(port_.ReadMem(spec.ram_base + 16, UINT64_MAX - 8).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(port_.ChecksumMem(spec.ram_base + 16, UINT64_MAX - 8).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(port_.ChecksumMem(spec.flash_base + 16, UINT64_MAX - 8).status().code(),
            ErrorCode::kOutOfRange);
  std::vector<PortOp> plan = {PortOp::Read(spec.flash_base + 16, UINT64_MAX - 8)};
  EXPECT_EQ(port_.RunBatch(&plan).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(RamBytes(board_, 0, spec.ram_bytes), before);
}

// WriteRam charges exactly what RunBatch charges for the whole-RAM write plan it
// stands for, and leaves RAM equal to the image.
TEST_F(BootedPortTest, WriteRamPricesTheWholeRamWritePlan) {
  const BoardSpec& spec = board_.spec();
  RamPages image;
  image.ram_bytes = spec.ram_bytes;
  ASSERT_TRUE(image.Poke(5 * kRamPageBytes + 3, {1, 2, 3}).ok());
  std::vector<uint8_t> expected(spec.ram_bytes, 0);
  expected[5 * kRamPageBytes + 3] = 1;
  expected[5 * kRamPageBytes + 4] = 2;
  expected[5 * kRamPageBytes + 5] = 3;

  std::vector<PortOp> plan;
  for (uint64_t offset = 0; offset < spec.ram_bytes; offset += kRamChunkBytes) {
    const uint64_t size = std::min(kRamChunkBytes, spec.ram_bytes - offset);
    plan.push_back(PortOp::Write(
        spec.ram_base + offset,
        std::vector<uint8_t>(expected.begin() + static_cast<std::ptrdiff_t>(offset),
                             expected.begin() + static_cast<std::ptrdiff_t>(offset + size))));
  }
  DebugPortStats before = port_.stats();
  VirtualTime start = port_.Now();
  ASSERT_TRUE(port_.RunBatch(&plan).ok());
  const VirtualDuration batch_cost = port_.Now() - start;
  DebugPortStats after_batch = port_.stats();
  EXPECT_EQ(RamBytes(board_, 0, spec.ram_bytes), expected);

  ASSERT_TRUE(board_.RamWriteU32(0, 0xffffffff).ok());  // a page the image lacks
  start = port_.Now();
  ASSERT_TRUE(port_.WriteRam(image).ok());
  EXPECT_EQ(port_.Now() - start, batch_cost);
  DebugPortStats after_write = port_.stats();
  EXPECT_EQ(RamBytes(board_, 0, spec.ram_bytes), expected);
  EXPECT_EQ(after_write.transactions - after_batch.transactions,
            after_batch.transactions - before.transactions);
  EXPECT_EQ(after_write.batches - after_batch.batches, 1u);
  EXPECT_EQ(after_write.batched_ops - after_batch.batched_ops, plan.size());
  EXPECT_EQ(after_write.bytes_written - after_batch.bytes_written, spec.ram_bytes);

  RamPages wrong = image;
  wrong.ram_bytes = spec.ram_bytes - 1;
  EXPECT_EQ(port_.WriteRam(wrong).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(port_.stats().transactions, after_write.transactions);
}

}  // namespace
}  // namespace eof
