// Unit tests for the kernel framework: handle table semantics (including staleness),
// API registry validation/dispatch, kernel-context coverage plumbing (ring writes,
// overflow, module filtering, bucket identity), and fault signal behaviour.

#include <gtest/gtest.h>

#include "src/hw/board.h"
#include "src/hw/board_catalog.h"
#include "src/kernel/api.h"
#include "src/kernel/coverage.h"
#include "src/kernel/handle_table.h"
#include "src/kernel/kernel_context.h"
#include "src/kernel/kernel_fault.h"

namespace eof {
namespace {

TEST(HandleTableTest, InsertFindRemove) {
  HandleTable<int> table(4);
  int64_t a = table.Insert(10);
  int64_t b = table.Insert(20);
  ASSERT_NE(a, 0);
  ASSERT_NE(b, 0);
  EXPECT_EQ(*table.Find(a), 10);
  EXPECT_EQ(table.live(), 2u);
  EXPECT_TRUE(table.Remove(a));
  EXPECT_EQ(table.Find(a), nullptr);
  EXPECT_FALSE(table.Remove(a));
}

TEST(HandleTableTest, StaleHandleDetectsRecycledSlot) {
  HandleTable<int> table(4);
  int64_t a = table.Insert(10);
  table.Remove(a);
  int64_t b = table.Insert(30);  // recycles the slot
  EXPECT_EQ(table.Find(a), nullptr);
  EXPECT_TRUE(table.IsStale(a));
  EXPECT_FALSE(table.IsStale(b));
  // The raw slot view shows what a dangling pointer would reference.
  EXPECT_EQ(*table.FindSlotRaw(a), 30);
}

TEST(HandleTableTest, CapacityBound) {
  HandleTable<int> table(2);
  EXPECT_NE(table.Insert(1), 0);
  EXPECT_NE(table.Insert(2), 0);
  EXPECT_EQ(table.Insert(3), 0);
}

struct CounterState {
  int64_t calls = 0;
};

TEST(ApiRegistryTest, RegistrationValidation) {
  ApiTable<CounterState> table;
  ApiSpec bad_len;
  bad_len.name = "f";
  bad_len.args = {ArgSpec::Len("n", 0)};  // len target is itself, not a buffer
  EXPECT_FALSE(table.Register(bad_len, nullptr).ok());

  ApiSpec empty_flags;
  empty_flags.name = "g";
  empty_flags.args = {ArgSpec::Flags("mode", {})};
  EXPECT_FALSE(table.Register(empty_flags, nullptr).ok());

  ApiSpec good;
  good.name = "h";
  good.args = {ArgSpec::Buffer("data", 0, 16), ArgSpec::Len("n", 0)};
  ASSERT_TRUE(
      table.Register(good, [](KernelContext&, CounterState& state, const std::vector<ArgValue>&) {
        return ++state.calls;
      }).ok());
  EXPECT_FALSE(table.Register(good, nullptr).ok());  // duplicate name
  EXPECT_EQ(table.FindByName("h")->id, 0u);
  EXPECT_EQ(table.size(), 1u);
}

class KernelContextTest : public ::testing::Test {
 protected:
  KernelContextTest() : board_(BoardSpecByName("stm32h745-nucleo").value()) {
    image_ = std::make_shared<FirmwareImage>();
    image_->set_os_name("testos");
    image_->set_code_base(board_.spec().text_base + 0x1000);
    (void)image_->AddModule("test/mod", 64);
    InstrumentationOptions instr;
    instr.enabled = true;
    image_->set_instrumentation(instr);
    board_.InstallImage(image_);
    ring_.ram_offset = 0x2200;
    ring_.capacity = 4;
  }

  uint32_t RingCount(uint32_t bank = 0) {
    return board_.RamReadU32(ring_.BankOffset(bank) + CovRingLayout::kCountOffset)
        .value();
  }
  uint32_t RingDropped(uint32_t bank = 0) {
    return board_.RamReadU32(ring_.BankOffset(bank) + CovRingLayout::kDroppedOffset)
        .value();
  }

  Board board_;
  std::shared_ptr<FirmwareImage> image_;
  CovRingLayout ring_;
};

// One table serves many states: each call runs against the state it is handed, and an
// included part table reaches its member of that state.
TEST_F(KernelContextTest, ApiTableDispatchesAgainstTheCallersState) {
  struct BoardState {
    CounterState kernel;
    CounterState app;
  };
  ApiTable<CounterState> app_table;
  ApiSpec bump;
  bump.name = "app_bump";
  bump.args = {ArgSpec::Scalar("by", 32, 0, 10)};
  ASSERT_TRUE(app_table
                  .Register(bump, [](KernelContext&, CounterState& state,
                                     const std::vector<ArgValue>& args) {
                    return state.calls += static_cast<int64_t>(args[0].scalar);
                  })
                  .ok());
  ApiTable<BoardState> table;
  ApiSpec count;
  count.name = "kernel_count";
  ASSERT_TRUE(table
                  .Register(count, [](KernelContext&, BoardState& state,
                                      const std::vector<ArgValue>&) {
                    return ++state.kernel.calls;
                  })
                  .ok());
  ASSERT_TRUE(table.Include(app_table, &BoardState::app).ok());
  EXPECT_EQ(table.FindByName("app_bump")->id, 1u);
  EXPECT_FALSE(table.Include(app_table, &BoardState::app).ok());  // duplicate names

  KernelContext ctx(board_, *image_, ring_);
  BoardState first;
  BoardState second;
  ArgValue three;
  three.scalar = 3;
  EXPECT_EQ(table.Call(ctx, first, 0, {}).value(), 1);
  EXPECT_EQ(table.Call(ctx, first, 0, {}).value(), 2);
  EXPECT_EQ(table.Call(ctx, second, 0, {}).value(), 1);
  EXPECT_EQ(table.Call(ctx, second, 1, {three}).value(), 3);
  EXPECT_EQ(first.app.calls, 0);
  EXPECT_EQ(second.kernel.calls, 1);
  EXPECT_EQ(table.Call(ctx, first, 2, {}).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(table.Call(ctx, first, 1, {}).status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(KernelContextTest, CovWritesRingAndOverflows) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 10);
  for (uint64_t bucket = 0; bucket < 4; ++bucket) {
    ctx.CovBucket(site, bucket);
  }
  EXPECT_EQ(RingCount(), 4u);
  EXPECT_FALSE(ctx.cov_overflow_pending());
  ctx.CovBucket(site, 5);  // ring full
  EXPECT_TRUE(ctx.cov_overflow_pending());
  EXPECT_EQ(RingDropped(), 1u);
  ctx.ClearCovOverflow();
  EXPECT_FALSE(ctx.cov_overflow_pending());
}

TEST_F(KernelContextTest, BucketsYieldDistinctEdges) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 20);
  ctx.CovBucket(site, 0);
  ctx.CovBucket(site, 1);
  EXPECT_EQ(RingCount(), 2u);
  std::vector<uint8_t> entry0;
  std::vector<uint8_t> entry1;
  ASSERT_TRUE(board_.RamReadInto(ring_.EntryOffset(0, 0), 8, &entry0).ok());
  ASSERT_TRUE(board_.RamReadInto(ring_.EntryOffset(0, 1), 8, &entry1).ok());
  EXPECT_NE(entry0, entry1);
}

TEST_F(KernelContextTest, ConstructionStampsVersionedHeader) {
  KernelContext ctx(board_, *image_, ring_);
  EXPECT_EQ(board_.RamReadU32(ring_.ram_offset + CovRingLayout::kVersionOffset).value(),
            CovRingLayout::kVersionMagic);
  EXPECT_EQ(board_.RamReadU32(ring_.ram_offset + CovRingLayout::kCapacityOffset).value(),
            ring_.capacity);
  EXPECT_EQ(
      board_.RamReadU32(ring_.ram_offset + CovRingLayout::kActiveBankOffset).value(),
      0u);
}

TEST_F(KernelContextTest, EntriesCarryCurrentCallIndex) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 21);
  ctx.SetCurrentCall(3);
  ctx.CovBucket(site, 0);
  ctx.SetCurrentCall(7);
  ctx.CovBucket(site, 1);
  EXPECT_EQ(board_.RamReadU32(ring_.EntryOffset(0, 0) + 8).value(), 3u);
  EXPECT_EQ(board_.RamReadU32(ring_.EntryOffset(0, 1) + 8).value(), 7u);
  EXPECT_EQ(board_.RamReadU32(ring_.ram_offset + CovRingLayout::kCurrentCallOffset)
                .value(),
            7u);
}

TEST_F(KernelContextTest, AppendsFollowBankSwitchAfterResumeWindow) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 22);
  ctx.CovBucket(site, 0);
  EXPECT_EQ(RingCount(0), 1u);
  // The host flips the active bank while the target is stopped; the context picks
  // the switch up at its next resume window, not mid-window.
  ASSERT_TRUE(
      board_.RamWriteU32(ring_.ram_offset + CovRingLayout::kActiveBankOffset, 1).ok());
  ctx.CovBucket(site, 1);
  EXPECT_EQ(RingCount(0), 2u);  // still the cached bank
  ctx.BeginResumeWindow();
  ctx.CovBucket(site, 2);
  EXPECT_EQ(RingCount(0), 2u);
  EXPECT_EQ(RingCount(1), 1u);
}

// Regression: the dropped counter used to be re-read from RAM and incremented per
// dropped entry, and wrapped past UINT32_MAX back to zero — making a maximally
// lossy window look lossless. It must saturate.
TEST_F(KernelContextTest, DroppedCounterSaturatesAtMax) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 23);
  for (uint64_t bucket = 0; bucket < 4; ++bucket) {
    ctx.CovBucket(site, bucket);
  }
  ASSERT_TRUE(board_.RamWriteU32(ring_.BankOffset(0) + CovRingLayout::kDroppedOffset,
                                 UINT32_MAX - 1)
                  .ok());
  ctx.CovBucket(site, 5);  // reads the pre-seeded value, bumps to UINT32_MAX
  EXPECT_EQ(RingDropped(), UINT32_MAX);
  ctx.CovBucket(site, 6);  // saturated: must NOT wrap to 0
  ctx.CovBucket(site, 7);
  EXPECT_EQ(RingDropped(), UINT32_MAX);
  EXPECT_TRUE(ctx.cov_overflow_pending());
}

TEST_F(KernelContextTest, UndeclaredModuleIsInvisible) {
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("other/mod", "f.cc", 30);
  ctx.Cov(site);
  EXPECT_EQ(RingCount(), 0u);
}

TEST_F(KernelContextTest, FilteredModuleReportsBlocksButNoRingEntries) {
  InstrumentationOptions instr;
  instr.enabled = true;
  instr.module_filter = {"apps/"};
  image_->set_instrumentation(instr);
  KernelContext ctx(board_, *image_, ring_);
  constexpr EdgeSite site = MakeEdgeSite("test/mod", "f.cc", 40);

  // Arm a hardware breakpoint on the site's block; an uninstrumented module must still
  // trip it (GDBFuzz observes uninstrumented images).
  uint64_t bb = FirmwareImage::BasicBlockAddress(image_->ModuleOf("test/mod").value(),
                                                 site.id);
  ASSERT_TRUE(board_.AddBreakpoint(bb).ok());
  ctx.Cov(site);
  EXPECT_EQ(RingCount(), 0u);
  EXPECT_EQ(board_.TakeBreakpointHits().size(), 1u);
}

TEST_F(KernelContextTest, PanicWritesBannerThenThrows) {
  KernelContext ctx(board_, *image_, ring_);
  EXPECT_THROW(ctx.Panic("BUG: test panic", "backtrace line"), KernelPanicSignal);
  std::string uart = board_.uart().Drain();
  EXPECT_NE(uart.find("BUG: test panic"), std::string::npos);
  EXPECT_NE(uart.find("backtrace line"), std::string::npos);
}

TEST_F(KernelContextTest, AssertFailLogsAndThrows) {
  KernelContext ctx(board_, *image_, ring_);
  EXPECT_THROW(ctx.AssertFail("(x != NULL) assertion failed"), KernelAssertSignal);
  EXPECT_NE(board_.uart().Drain().find("assertion failed"), std::string::npos);
}

TEST_F(KernelContextTest, RamBudgetEnforced) {
  KernelContext ctx(board_, *image_, ring_);
  uint64_t budget = board_.spec().ram_bytes * 3 / 4;
  EXPECT_TRUE(ctx.ReserveRam(budget - 16).ok());
  EXPECT_FALSE(ctx.ReserveRam(64).ok());
  ctx.ReleaseRam(1024);
  EXPECT_TRUE(ctx.ReserveRam(64).ok());
}

TEST(CovSizeClassTest, Buckets) {
  EXPECT_EQ(CovSizeClass(0), 0u);
  EXPECT_EQ(CovSizeClass(1), 0u);
  EXPECT_EQ(CovSizeClass(2), 1u);
  EXPECT_EQ(CovSizeClass(1024), 10u);
  EXPECT_LT(CovSizeClass(UINT64_MAX), kMaxCovBuckets);
}

}  // namespace
}  // namespace eof
