// Detail tests of the deployment helpers: coverage-ring drop accounting, mailbox bounds,
// debug-port traffic statistics, and virtual-time cost accounting of the reflash path.

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/core/deployment.h"
#include "src/hw/timing.h"
#include "src/kernel/os.h"
#include "src/os/all_oses.h"

namespace eof {
namespace {

class DeploymentDetailsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ASSERT_TRUE(RegisterAllOses().ok()); }

  std::unique_ptr<Deployment> Deploy(const std::string& os_name) {
    DeployOptions options;
    options.os_name = os_name;
    return std::move(Deployment::Create(options).value());
  }
};

TEST_F(DeploymentDetailsTest, MailboxRejectsOversizedTestCase) {
  auto deployment = Deploy("pokos");
  std::vector<uint8_t> oversized(kMailboxMaxBytes + 1, 0xab);
  EXPECT_EQ(deployment->WriteTestCase(oversized).code(), ErrorCode::kInvalidArgument);
  std::vector<uint8_t> max_size(kMailboxMaxBytes, 0xab);
  EXPECT_TRUE(deployment->WriteTestCase(max_size).ok());
}

TEST_F(DeploymentDetailsTest, CoverageDrainResetsHeaderAndReportsDrops) {
  auto deployment = Deploy("pokos");  // HiFive1: tiny 192-entry ring
  Board& board = deployment->board();
  // Fabricate a full ring with drops, as heavy instrumentation would leave it.
  CovRingLayout ring = deployment->cov_ring();
  ASSERT_EQ(ring.capacity, 192u);
  for (uint32_t i = 0; i < ring.capacity; ++i) {
    ASSERT_TRUE(board.RamWriteU64(ring.EntryOffset(0, i), 0x1000 + i).ok());
    ASSERT_TRUE(board.RamWriteU32(ring.EntryOffset(0, i) + 8, i % 5).ok());
  }
  ASSERT_TRUE(board.RamWriteU32(ring.BankOffset(0) + CovRingLayout::kCountOffset,
                                ring.capacity).ok());
  ASSERT_TRUE(
      board.RamWriteU32(ring.BankOffset(0) + CovRingLayout::kDroppedOffset, 7).ok());

  uint32_t dropped = 0;
  std::vector<CovHit> entries;
  ASSERT_TRUE(deployment->DrainCoverage(&entries, &dropped).ok());
  EXPECT_EQ(entries.size(), ring.capacity);
  EXPECT_EQ(dropped, 7u);
  EXPECT_EQ(entries[3].edge, 0x1003u);
  EXPECT_EQ(entries[3].call, 3u);  // attribution survives the drain

  // Header reset: a second drain is empty.
  std::vector<CovHit> again;
  ASSERT_TRUE(deployment->DrainCoverage(&again, &dropped).ok());
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(dropped, 0u);
}

TEST_F(DeploymentDetailsTest, ScribbledRingCountIsClamped) {
  auto deployment = Deploy("pokos");
  CovRingLayout ring = deployment->cov_ring();
  // A buggy target wrote a huge count; the host must not issue a giant read.
  ASSERT_TRUE(deployment->board().RamWriteU32(
      ring.BankOffset(0) + CovRingLayout::kCountOffset, 0xffffffff).ok());
  std::vector<CovHit> entries;
  ASSERT_TRUE(deployment->DrainCoverage(&entries).ok());
  EXPECT_LE(entries.size(), ring.capacity);
}

TEST_F(DeploymentDetailsTest, CorruptRingHeaderFailsValidationLoudly) {
  auto deployment = Deploy("pokos");
  CovRingLayout ring = deployment->cov_ring();
  ASSERT_TRUE(deployment->ValidateCovRing().ok());
  // An image built against the old unversioned layout leaves garbage where the
  // version magic lives; deployment must refuse it instead of mis-parsing drains.
  ASSERT_TRUE(deployment->board()
                  .RamWriteU32(ring.ram_offset + CovRingLayout::kVersionOffset,
                               0xdeadbeef)
                  .ok());
  Status bad_version = deployment->ValidateCovRing();
  EXPECT_EQ(bad_version.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(bad_version.ToString().find("version"), std::string::npos);

  ASSERT_TRUE(deployment->board()
                  .RamWriteU32(ring.ram_offset + CovRingLayout::kVersionOffset,
                               CovRingLayout::kVersionMagic)
                  .ok());
  ASSERT_TRUE(deployment->board()
                  .RamWriteU32(ring.ram_offset + CovRingLayout::kCapacityOffset,
                               ring.capacity + 1)
                  .ok());
  Status bad_capacity = deployment->ValidateCovRing();
  EXPECT_EQ(bad_capacity.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(bad_capacity.ToString().find("capacity"), std::string::npos);
}

TEST_F(DeploymentDetailsTest, DebugPortStatsAccumulate) {
  auto deployment = Deploy("zephyr");
  DebugPortStats before = deployment->port().stats();
  (void)deployment->port().ReadMem(deployment->board_spec().ram_base, 256);
  (void)deployment->port().Continue();
  DebugPortStats after = deployment->port().stats();
  EXPECT_GT(after.transactions, before.transactions);
  EXPECT_EQ(after.bytes_read, before.bytes_read + 256);
  EXPECT_GT(after.flash_bytes, 0u);  // the initial deployment flashed partitions
  EXPECT_GE(after.resets, 1u);
}

TEST_F(DeploymentDetailsTest, ReflashCostScalesWithImageSize) {
  // Measures the full-reprogram cost model, so erase both boards' flash first: the
  // delta reflash would otherwise skip every (still pristine) partition.
  auto small = Deploy("zephyr");    // ~0.9 MB image
  auto large = Deploy("nuttx");     // ~3.6 MB image
  small->board().flash().MassErase();
  large->board().flash().MassErase();
  VirtualTime t0 = small->port().Now();
  ASSERT_TRUE(small->ReflashAndReboot().ok());
  VirtualDuration small_cost = small->port().Now() - t0;

  t0 = large->port().Now();
  ASSERT_TRUE(large->ReflashAndReboot().ok());
  VirtualDuration large_cost = large->port().Now() - t0;

  EXPECT_GT(large_cost, small_cost * 2);
  EXPECT_GT(small_cost, kRebootCost);  // flash programming dominates a bare reboot
}

TEST_F(DeploymentDetailsTest, DeltaReflashSkipsCleanPartitions) {
  auto deployment = Deploy("zephyr");
  const DebugPortStats before = deployment->port().stats();
  VirtualTime t0 = deployment->port().Now();
  ASSERT_TRUE(deployment->ReflashAndReboot().ok());
  const DebugPortStats after = deployment->port().stats();

  // Nothing was corrupted, so no byte is reprogrammed; every payload partition is
  // proven unchanged by checksum and skipped.
  EXPECT_EQ(after.flash_bytes, before.flash_bytes);
  EXPECT_GT(after.flash_skipped_bytes, before.flash_skipped_bytes);
  // The whole restore costs reboot + a few checksum round trips, far below the
  // 5 us/byte full reprogram (~4.5 virtual seconds for this image).
  EXPECT_LT(deployment->port().Now() - t0, kRebootCost * 4);
}

TEST_F(DeploymentDetailsTest, DeltaReflashReprogramsOnlyCorruptedPartition) {
  auto deployment = Deploy("zephyr");
  // Pick a payload-backed partition and corrupt one byte of its flash region.
  const Partition* victim = nullptr;
  uint64_t victim_bytes = 0;
  uint64_t payload_total = 0;
  for (const Partition& part : deployment->image().partition_table().partitions) {
    const FirmwareImage::Payload* payload = deployment->image().PayloadOf(part.name);
    if (payload == nullptr) {
      continue;
    }
    payload_total += payload->size();
    if (victim == nullptr) {
      victim = &part;
      victim_bytes = payload->size();
    }
  }
  ASSERT_NE(victim, nullptr);
  auto byte = deployment->board().flash().Read(victim->offset, 1);
  ASSERT_TRUE(byte.ok());
  ASSERT_TRUE(deployment->board()
                  .FlashWrite(victim->offset, {static_cast<uint8_t>(~byte.value()[0])})
                  .ok());

  const DebugPortStats before = deployment->port().stats();
  ASSERT_TRUE(deployment->ReflashAndReboot().ok());
  const DebugPortStats after = deployment->port().stats();

  // Exactly the damaged partition is reprogrammed; the rest are checksum-skipped.
  EXPECT_EQ(after.flash_bytes - before.flash_bytes, victim_bytes);
  EXPECT_EQ(after.flash_skipped_bytes - before.flash_skipped_bytes,
            payload_total - victim_bytes);
}

// One flipped byte anywhere in the kernel payload changes the flash checksum, so the
// delta reflash reprograms the partition: the first byte, the middle, the last byte of
// ChecksumBytes' 32-byte lane blocks, and the last byte, which lies in its word tail.
TEST_F(DeploymentDetailsTest, DeltaReflashCatchesAFlipAnywhereInTheKernel) {
  auto deployment = Deploy("zephyr");
  const Partition* kernel = deployment->image().partition_table().Find("kernel");
  const FirmwareImage::Payload* payload = deployment->image().PayloadOf("kernel");
  ASSERT_NE(kernel, nullptr);
  ASSERT_NE(payload, nullptr);
  const uint64_t size = payload->size();
  const uint64_t pristine = ChecksumBytes(payload->bytes().data(), size);
  ASSERT_NE(size % 32, 0u);
  const uint64_t address = deployment->board_spec().flash_base + kernel->offset;
  for (uint64_t at : {uint64_t{0}, size / 2, size / 32 * 32 - 1, size - 1}) {
    SCOPED_TRACE(at);
    const uint8_t flipped = static_cast<uint8_t>(payload->bytes()[at] ^ 0x01);
    ASSERT_TRUE(deployment->board().FlashWrite(kernel->offset + at, {flipped}).ok());
    Result<uint64_t> checksum = deployment->port().ChecksumMem(address, size);
    ASSERT_TRUE(checksum.ok());
    EXPECT_NE(checksum.value(), pristine);

    const DebugPortStats before = deployment->port().stats();
    ASSERT_TRUE(deployment->ReflashAndReboot().ok());
    EXPECT_EQ(deployment->port().stats().flash_bytes - before.flash_bytes, size);
    EXPECT_EQ(deployment->port().ChecksumMem(address, size).value(), pristine);
  }
}

TEST_F(DeploymentDetailsTest, PrebuiltImageDeploysLikeAFreshBuild) {
  DeployOptions options;
  options.os_name = "zephyr";
  auto image = Deployment::BuildImageFor(options);
  ASSERT_TRUE(image.ok());
  auto fresh = Deploy("zephyr");
  options.image = image.value();
  auto first = Deployment::Create(options);
  auto second = Deployment::Create(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // One image, two boards: each board is its own, flashed and booted from scratch.
  EXPECT_EQ(&(*first)->image(), image.value().get());
  EXPECT_EQ(&(*second)->image(), image.value().get());
  EXPECT_NE(&(*first)->board(), &(*second)->board());
  for (Deployment* shared : {first.value().get(), second.value().get()}) {
    EXPECT_EQ(shared->board().power_state(), PowerState::kRunning);
    EXPECT_EQ(shared->port().Now(), fresh->port().Now());
    EXPECT_EQ(shared->port().stats().flash_bytes, fresh->port().stats().flash_bytes);
    EXPECT_EQ(shared->port().stats().transactions, fresh->port().stats().transactions);
  }
}

TEST_F(DeploymentDetailsTest, BatchedDrainIsOneRoundTrip) {
  auto deployment = Deploy("pokos");
  Board& board = deployment->board();
  CovRingLayout ring = deployment->cov_ring();
  auto fill = [&](uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      ASSERT_TRUE(board.RamWriteU64(ring.EntryOffset(0, i), 0x2000 + i).ok());
    }
    ASSERT_TRUE(
        board.RamWriteU32(ring.BankOffset(0) + CovRingLayout::kCountOffset, count).ok());
  };

  fill(8);
  uint64_t t0 = deployment->port().stats().transactions;
  std::vector<CovHit> entries;
  ASSERT_TRUE(deployment->DrainCoverage(&entries).ok());
  EXPECT_EQ(entries.size(), 8u);
  // Header read, entries prefetch, and both header subtracts fold into one batch.
  EXPECT_EQ(deployment->port().stats().transactions - t0, 1u);
}

TEST_F(DeploymentDetailsTest, FlipModeDrainIsOneRoundTripParkedBankFirst) {
  auto deployment = Deploy("pokos");
  Board& board = deployment->board();
  CovRingLayout ring = deployment->cov_ring();
  ASSERT_TRUE(deployment->SetBankFlipMode(true).ok());
  auto fill = [&](uint32_t bank, uint32_t count, uint32_t drops, uint64_t edge_base) {
    for (uint32_t i = 0; i < count; ++i) {
      ASSERT_TRUE(board.RamWriteU64(ring.EntryOffset(bank, i), edge_base + i).ok());
      ASSERT_TRUE(board.RamWriteU32(ring.EntryOffset(bank, i) + 8, bank).ok());
    }
    ASSERT_TRUE(
        board.RamWriteU32(ring.BankOffset(bank) + CovRingLayout::kCountOffset, count).ok());
    ASSERT_TRUE(
        board.RamWriteU32(ring.BankOffset(bank) + CovRingLayout::kDroppedOffset, drops)
            .ok());
  };
  // The target flipped from bank 1 onto bank 0: bank 1 is parked and holds the
  // older entries.
  fill(1, 5, 2, 0x3000);
  fill(0, 3, 1, 0x4000);
  ASSERT_TRUE(board.RamWriteU32(ring.ram_offset + CovRingLayout::kActiveBankOffset,
                                CovRingLayout::kBankFlipEnableBit | 0)
                  .ok());
  // A recognisable status block: calls_done rides the drain's round trip.
  ASSERT_TRUE(board.RamWriteU32(kStatusBlockOffset + 8, 1234).ok());

  uint32_t dropped = 0;
  AgentStatusView status;
  uint64_t t0 = deployment->port().stats().transactions;
  std::vector<CovHit> entries;
  ASSERT_TRUE(deployment->DrainCoverage(&entries, &dropped, &status).ok());
  EXPECT_EQ(deployment->port().stats().transactions - t0, 1u);
  ASSERT_EQ(entries.size(), 8u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[i].edge, 0x3000u + i);
    EXPECT_EQ(entries[i].call, 1u);
  }
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(entries[5 + i].edge, 0x4000u + i);
    EXPECT_EQ(entries[5 + i].call, 0u);
  }
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(status.calls_done, 1234u);

  // Both bank headers were drained: a second drain is empty.
  std::vector<CovHit> again;
  ASSERT_TRUE(deployment->DrainCoverage(&again, &dropped).ok());
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(dropped, 0u);
}

TEST_F(DeploymentDetailsTest, WriteTestCaseIsOneRoundTrip) {
  auto deployment = Deploy("pokos");
  std::vector<uint8_t> encoded(64, 0xcd);
  uint64_t t0 = deployment->port().stats().transactions;
  ASSERT_TRUE(deployment->WriteTestCase(encoded).ok());
  EXPECT_EQ(deployment->port().stats().transactions - t0, 1u);
}

}  // namespace
}  // namespace eof
