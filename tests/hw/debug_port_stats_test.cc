// Tests of the vectored debug-port batch API and the extended link statistics:
// one-transaction batches, the adapter-side read-then-subtract helper, the severed-link
// mid-batch timeout path, target-assisted checksums, and delta-reflash skip accounting.

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/hw/debug_port.h"
#include "src/hw/timing.h"

namespace eof {
namespace {

class DebugPortBatchTest : public ::testing::Test {
 protected:
  DebugPortBatchTest() : board_(BoardSpecByName("stm32f407-disco").value()), port_(&board_) {
    EXPECT_TRUE(port_.Connect().ok());
    // Park the core in a serviced power state: batches with memory ops gate on the core
    // being past the boot ROM, and a latched fault (like a live kernel) qualifies.
    board_.LatchFault(0x1000, "test: park the core");
  }

  uint64_t Ram(uint64_t offset) const { return board_.spec().ram_base + offset; }

  Board board_;
  DebugPort port_;
};

TEST_F(DebugPortBatchTest, BatchIsOneTransactionAndAppliesInOrder) {
  ASSERT_TRUE(board_.RamWrite(0x40, {0xaa, 0xbb, 0xcc, 0xdd}).ok());
  const DebugPortStats before = port_.stats();

  std::vector<PortOp> ops;
  ops.push_back(PortOp::Write(Ram(0x10), {1, 2, 3}));
  ops.push_back(PortOp::Write(Ram(0x10), {9}));  // later op wins: queue order is commit order
  ops.push_back(PortOp::Read(Ram(0x40), 4));
  ASSERT_TRUE(port_.RunBatch(&ops).ok());

  const DebugPortStats after = port_.stats();
  EXPECT_EQ(after.transactions - before.transactions, 1u);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.batched_ops - before.batched_ops, 3u);
  EXPECT_EQ(after.bytes_written - before.bytes_written, 4u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 4u);
  EXPECT_EQ(ops[2].result, (std::vector<uint8_t>{0xaa, 0xbb, 0xcc, 0xdd}));
  std::vector<uint8_t> ram;
  ASSERT_TRUE(board_.RamReadInto(0x10, 1, &ram).ok());
  EXPECT_EQ(ram, (std::vector<uint8_t>{9}));
}

TEST_F(DebugPortBatchTest, BatchCostIsOneLatencyChargePlusBytes) {
  std::vector<PortOp> ops;
  ops.push_back(PortOp::Write(Ram(0x10), std::vector<uint8_t>(64, 0x11)));
  ops.push_back(PortOp::Read(Ram(0x80), 128));
  VirtualTime t0 = port_.Now();
  ASSERT_TRUE(port_.RunBatch(&ops).ok());
  // One kDebugTransactionCost for the whole batch plus the per-byte link cost —
  // not one latency charge per op.
  EXPECT_EQ(port_.Now() - t0, DebugBatchCost(64 + 128));
  EXPECT_LT(DebugBatchCost(64 + 128), 2 * kDebugTransactionCost);
}

TEST_F(DebugPortBatchTest, EmptyBatchIsFree) {
  const DebugPortStats before = port_.stats();
  VirtualTime t0 = port_.Now();
  std::vector<PortOp> ops;
  EXPECT_TRUE(port_.RunBatch(&ops).ok());
  EXPECT_TRUE(port_.RunBatch(nullptr).ok());
  EXPECT_EQ(port_.Now(), t0);
  EXPECT_EQ(port_.stats().transactions, before.transactions);
  EXPECT_EQ(port_.stats().batches, before.batches);
}

TEST_F(DebugPortBatchTest, SubU32SubtractsTheValueTheBatchRead) {
  ASSERT_TRUE(board_.RamWriteU32(0x100, 7).ok());
  std::vector<PortOp> ops;
  ops.push_back(PortOp::Read(Ram(0x100), 4));
  ops.push_back(PortOp::SubU32(Ram(0x100), /*operand_op=*/0, /*operand_offset=*/0));
  ASSERT_TRUE(port_.RunBatch(&ops).ok());
  // read 7, then 7 - 7 = 0: a drain that subtracts exactly what it saw.
  EXPECT_EQ(board_.RamReadU32(0x100).value(), 0u);
}

TEST_F(DebugPortBatchTest, SubU32SaturatesAtZero) {
  ASSERT_TRUE(board_.RamWriteU32(0x100, 9).ok());  // minuend source
  ASSERT_TRUE(board_.RamWriteU32(0x104, 5).ok());  // target smaller than the subtrahend
  std::vector<PortOp> ops;
  ops.push_back(PortOp::Read(Ram(0x100), 4));
  ops.push_back(PortOp::SubU32(Ram(0x104), 0, 0));
  ASSERT_TRUE(port_.RunBatch(&ops).ok());
  EXPECT_EQ(board_.RamReadU32(0x104).value(), 0u);
}

TEST_F(DebugPortBatchTest, SubU32ValidatesItsOperandReference) {
  // No operand read.
  std::vector<PortOp> ops;
  ops.push_back(PortOp::SubU32(Ram(0x100), -1, 0));
  EXPECT_EQ(port_.RunBatch(&ops).code(), ErrorCode::kInvalidArgument);

  // Forward reference: the operand read has not executed yet.
  ops.clear();
  ops.push_back(PortOp::SubU32(Ram(0x100), 1, 0));
  ops.push_back(PortOp::Read(Ram(0x100), 4));
  EXPECT_EQ(port_.RunBatch(&ops).code(), ErrorCode::kInvalidArgument);

  // Operand is not a read.
  ops.clear();
  ops.push_back(PortOp::Write(Ram(0x100), {1, 2, 3, 4}));
  ops.push_back(PortOp::SubU32(Ram(0x100), 0, 0));
  EXPECT_EQ(port_.RunBatch(&ops).code(), ErrorCode::kInvalidArgument);

  // Offset past the end of the read's window.
  ops.clear();
  ops.push_back(PortOp::Read(Ram(0x100), 4));
  ops.push_back(PortOp::SubU32(Ram(0x100), 0, /*operand_offset=*/2));
  EXPECT_EQ(port_.RunBatch(&ops).code(), ErrorCode::kInvalidArgument);
}

TEST_F(DebugPortBatchTest, SeveredLinkBurnsOneTimeoutAndAppliesNothing) {
  ASSERT_TRUE(board_.RamWriteU32(0x100, 42).ok());
  const DebugPortStats before = port_.stats();
  port_.InjectLinkFailure(true);

  std::vector<PortOp> ops;
  ops.push_back(PortOp::Write(Ram(0x100), {0, 0, 0, 0}));
  ops.push_back(PortOp::Read(Ram(0x100), 4));
  ops.push_back(PortOp::SubU32(Ram(0x100), 1, 0));
  VirtualTime t0 = port_.Now();
  Status status = port_.RunBatch(&ops);

  // The whole batch fails as ONE link transaction: a single kLinkTimeout is burned
  // (not one per queued op), no batch is counted, and no op took effect.
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(port_.Now() - t0, kLinkTimeout);
  EXPECT_EQ(port_.stats().timeouts - before.timeouts, 1u);
  EXPECT_EQ(port_.stats().batches, before.batches);
  EXPECT_EQ(port_.stats().transactions, before.transactions);
  EXPECT_EQ(board_.RamReadU32(0x100).value(), 42u);
}

TEST_F(DebugPortBatchTest, BreakpointOnlyBatchNeedsNoLiveCore) {
  // A fresh, never-booted board: comparator programming goes through the debug unit,
  // so a breakpoint-only batch succeeds where any memory op would time out.
  Board cold(BoardSpecByName("stm32f407-disco").value());
  DebugPort port(&cold);
  ASSERT_TRUE(port.Connect().ok());

  std::vector<PortOp> ops;
  ops.push_back(PortOp::SetBp(0x900000));
  ops.push_back(PortOp::SetBp(0x900004));
  EXPECT_TRUE(port.RunBatch(&ops).ok());
  EXPECT_EQ(port.stats().batched_ops, 2u);

  ops.clear();
  ops.push_back(PortOp::SetBp(0x900008));
  ops.push_back(PortOp::Read(cold.spec().ram_base, 4));
  EXPECT_EQ(port.RunBatch(&ops).code(), ErrorCode::kTimeout);
}

TEST_F(DebugPortBatchTest, ChecksumMatchesContentAndMovesOnlyTheDigest) {
  std::vector<uint8_t> blob(512);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(board_.RamWrite(0x200, blob).ok());

  const DebugPortStats before = port_.stats();
  auto digest = port_.ChecksumMem(Ram(0x200), blob.size());
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest.value(), ChecksumBytes(blob.data(), blob.size()));
  // The hash runs on-target; only the 8-byte digest crosses the link.
  EXPECT_EQ(port_.stats().bytes_read - before.bytes_read, 8u);
  EXPECT_EQ(port_.stats().transactions - before.transactions, 1u);

  // Checksums are serviced on a never-booted core (the flash-verify path must work
  // before first boot).
  Board cold(BoardSpecByName("stm32f407-disco").value());
  DebugPort cold_port(&cold);
  ASSERT_TRUE(cold_port.Connect().ok());
  EXPECT_TRUE(cold_port.ChecksumMem(cold.spec().flash_base, 256).ok());
}

TEST_F(DebugPortBatchTest, ContinueWithReadIsOneRoundTrip) {
  ASSERT_TRUE(board_.RamWrite(0x300, {5, 6, 7, 8}).ok());
  const DebugPortStats before = port_.stats();
  std::vector<uint8_t> out;
  auto stop = port_.ContinueWithRead(Ram(0x300), 4, &out);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{5, 6, 7, 8}));
  EXPECT_EQ(port_.stats().transactions - before.transactions, 1u);
  EXPECT_EQ(port_.stats().batches - before.batches, 1u);
  EXPECT_EQ(port_.stats().batched_ops - before.batched_ops, 2u);
}

TEST_F(DebugPortBatchTest, FlashSkippedBytesAccounting) {
  const DebugPortStats before = port_.stats();
  port_.NoteFlashSkipped(4096);
  port_.NoteFlashSkipped(100);
  EXPECT_EQ(port_.stats().flash_skipped_bytes - before.flash_skipped_bytes, 4196u);
  // Skips are bookkeeping, not link traffic.
  EXPECT_EQ(port_.stats().transactions, before.transactions);
}

// Farm aggregation goes through registry snapshot merges now: two boards' link
// ledgers merged must sum every `link.*` counter, and the stats view built from the
// merged snapshot must report those sums field for field.
TEST(DebugPortStatsTest, SnapshotMergeSumsEveryLinkCounter) {
  telemetry::MetricsRegistry reg_a;
  telemetry::MetricsRegistry reg_b;
  const char* names[] = {"link.transactions",        "link.batches",
                         "link.batched_ops",         "link.bytes_read",
                         "link.bytes_written",       "link.timeouts",
                         "link.flash_bytes",         "link.flash_skipped_bytes",
                         "link.resets"};
  uint64_t value = 1;
  for (const char* name : names) {
    reg_a.RegisterCounter(name)->Add(value);
    reg_b.RegisterCounter(name)->Add(value * 10);
    ++value;
  }
  telemetry::MetricsSnapshot merged = reg_a.Snapshot();
  merged.Merge(reg_b.Snapshot());

  DebugPortStats stats = DebugPortStatsFromSnapshot(merged);
  EXPECT_EQ(stats.transactions, 11u);
  EXPECT_EQ(stats.batches, 22u);
  EXPECT_EQ(stats.batched_ops, 33u);
  EXPECT_EQ(stats.bytes_read, 44u);
  EXPECT_EQ(stats.bytes_written, 55u);
  EXPECT_EQ(stats.timeouts, 66u);
  EXPECT_EQ(stats.flash_bytes, 77u);
  EXPECT_EQ(stats.flash_skipped_bytes, 88u);
  EXPECT_EQ(stats.resets, 99u);
}

// A port's live counters and a snapshot of its registry must agree: stats() is a
// view, not a second ledger.
TEST(DebugPortStatsTest, StatsMatchesRegistrySnapshot) {
  auto spec_or = BoardSpecByName("stm32f407-disco");
  ASSERT_TRUE(spec_or.ok());
  Board board(spec_or.value());
  DebugPort port(&board);
  port.NoteFlashSkipped(4096);
  DebugPortStats from_snapshot = DebugPortStatsFromSnapshot(port.registry().Snapshot());
  EXPECT_EQ(from_snapshot.flash_skipped_bytes, port.stats().flash_skipped_bytes);
  EXPECT_EQ(from_snapshot.transactions, port.stats().transactions);
  EXPECT_EQ(from_snapshot.timeouts, port.stats().timeouts);
}

}  // namespace
}  // namespace eof
