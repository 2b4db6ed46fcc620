#include "src/kernel/kernel_context.h"

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/hw/timing.h"
#include "src/kernel/costs.h"

namespace eof {

KernelContext::KernelContext(TargetEnv& env, const FirmwareImage& image, CovRingLayout ring)
    : env_(env),
      image_(image),
      ring_(ring),
      rng_(Fnv1a(image.os_name(), Fnv1a(env.spec().name))) {
  if (ring_.capacity != 0) {
    // Stamp the v2 ring header so the host can validate layout agreement at deploy
    // time: version magic + the capacity this boot will append against. The rest of
    // the header (current_call, active_bank, bank counters) starts zeroed with RAM.
    (void)env_.RamWriteU32(ring_.ram_offset + CovRingLayout::kVersionOffset,
                           CovRingLayout::kVersionMagic);
    (void)env_.RamWriteU32(ring_.ram_offset + CovRingLayout::kCapacityOffset,
                           ring_.capacity);
  }
}

void KernelContext::SetCurrentCall(uint32_t call_index) {
  if (ring_.capacity == 0) {
    return;
  }
  if (current_call_valid_ && current_call_ == call_index) {
    return;
  }
  current_call_ = call_index;
  current_call_valid_ = true;
  (void)env_.RamWriteU32(ring_.ram_offset + CovRingLayout::kCurrentCallOffset, call_index);
}

void KernelContext::BeginResumeWindow() {
  bank_valid_ = false;
  dropped_valid_ = false;
  // current_call stays valid: only this context writes it, so the cache cannot
  // go stale across a host drain.
}

void KernelContext::CovBucket(const EdgeSite& site, uint64_t bucket) {
  ++cov_events_;
  // Resolve the site's module: its synthetic basic-block layout and whether it is
  // instrumented. Consecutive events mostly come from one module.
  if (site.module != last_module_) {
    auto it = layout_cache_.find(site.module);
    if (it == layout_cache_.end()) {
      CachedModule cached;
      for (const ModuleLayout& candidate : image_.modules()) {
        if (candidate.module == site.module) {
          cached.layout = &candidate;
          break;
        }
      }
      cached.covered = image_.instrumentation().Covers(site.module);
      it = layout_cache_.emplace(site.module, cached).first;
    }
    last_module_ = site.module;
    last_cached_ = it->second;
  }
  const ModuleLayout* layout = last_cached_.layout;
  if (layout == nullptr) {
    return;  // module not declared in the image: invisible to every tool
  }
  if (bucket >= kMaxCovBuckets) {
    bucket = kMaxCovBuckets - 1;
  }
  // Knuth-hash the bucket into the site id so buckets land on distinct synthetic blocks.
  uint64_t edge_id = site.id + bucket * 2654435761ULL;
  uint64_t bb_address = FirmwareImage::BasicBlockAddress(*layout, edge_id);
  // The block executed whether or not instrumentation is compiled in — hardware
  // breakpoints (GDBFuzz) observe it either way.
  env_.OnBasicBlockExecuted(bb_address);

  if (!last_cached_.covered) {
    return;
  }
  ++cov_instrumented_events_;
  env_.ConsumeCycles(kCovCallbackCycles);
  if (image_.instrumentation().semihost) {
    // SHIFT-style semihosting: every event traps to the host debugger.
    env_.ConsumeCycles(kSemihostTrapCost * env_.spec().clock_mhz);
  }
  if (ring_.capacity == 0) {
    return;
  }
  // The host flips the active bank (double-buffered drain) only while the target is
  // stopped, so one read per resume window is coherent.
  if (!bank_valid_) {
    auto bank_or = env_.RamReadU32(ring_.ram_offset + CovRingLayout::kActiveBankOffset);
    active_bank_ = bank_or.ok() ? (bank_or.value() & 1) : 0;
    bank_valid_ = true;
  }
  uint64_t bank_base = ring_.BankOffset(active_bank_);
  auto count_or = env_.RamReadU32(bank_base + CovRingLayout::kCountOffset);
  if (!count_or.ok()) {
    return;
  }
  uint32_t count = count_or.value();
  if (count >= ring_.capacity) {
    // Saturating drop counter, read from RAM at most once per resume window (the
    // host zeroes it only between windows). Saturation keeps a pathological run
    // from wrapping the u32 back to "nothing dropped".
    if (!dropped_valid_) {
      auto dropped_or = env_.RamReadU32(bank_base + CovRingLayout::kDroppedOffset);
      dropped_ = dropped_or.ok() ? dropped_or.value() : 0;
      dropped_valid_ = true;
    }
    if (dropped_ < UINT32_MAX) {
      ++dropped_;
    }
    (void)env_.RamWriteU32(bank_base + CovRingLayout::kDroppedOffset, dropped_);
    cov_overflow_pending_ = true;
    return;
  }
  uint64_t entry = ring_.EntryOffset(active_bank_, count);
  (void)env_.RamWriteU64(entry, bb_address);
  (void)env_.RamWriteU32(entry + 8, current_call_);
  (void)env_.RamWriteU32(bank_base + CovRingLayout::kCountOffset, count + 1);
}

bool KernelContext::TryBankFlip() {
  if (ring_.capacity == 0) {
    return false;
  }
  uint64_t word_offset = ring_.ram_offset + CovRingLayout::kActiveBankOffset;
  auto word_or = env_.RamReadU32(word_offset);
  if (!word_or.ok() || (word_or.value() & CovRingLayout::kBankFlipEnableBit) == 0) {
    return false;
  }
  uint32_t active = word_or.value() & CovRingLayout::kActiveBankMask;
  uint32_t parked = active ^ 1;
  auto parked_count =
      env_.RamReadU32(ring_.BankOffset(parked) + CovRingLayout::kCountOffset);
  if (!parked_count.ok() || parked_count.value() != 0) {
    return false;  // host has not collected the parked bank yet: backpressure
  }
  // Park the full bank and append into the collected one. The host owns bit 8;
  // preserve it (and any future host-owned bits) by toggling only the bank bit.
  (void)env_.RamWriteU32(word_offset, word_or.value() ^ CovRingLayout::kActiveBankMask);
  env_.ConsumeCycles(kListOpCycles);
  active_bank_ = parked;
  bank_valid_ = true;
  // The cached dropped counter described the bank just parked; the fresh bank's
  // counter was zeroed by the host's last drain and must be re-read on first drop.
  dropped_valid_ = false;
  return true;
}

void KernelContext::YieldDelay() {
  // The settling delay between test-case calls: ticks, idle task, housekeeping threads.
  uint64_t cycles = kYieldBaseCycles;
  // Housekeeping runs the instrumented build too; its slowdown scales with how much of
  // the image carries callbacks.
  uint64_t extra = image_.instrumented_sites() * kCovYieldCyclesPerSite;
  if (image_.instrumentation().semihost) {
    extra *= 20;  // every housekeeping callback traps to the debugger
  }
  env_.ConsumeCycles(cycles + extra);
}

void KernelContext::Panic(const std::string& message, const std::string& backtrace) {
  // The panic banner races the fault latch on real boards but the first lines make it out.
  LogLine(message);
  if (!backtrace.empty()) {
    LogLine(backtrace);
  }
  env_.ConsumeCycles(200);
  throw KernelPanicSignal{message, backtrace};
}

void KernelContext::AssertFail(const std::string& message) {
  LogLine(message);
  env_.ConsumeCycles(100);
  throw KernelAssertSignal{message};
}

void KernelContext::Hang(const std::string& message) {
  env_.ConsumeCycles(100);
  throw KernelHangSignal{message};
}

void KernelContext::LogLine(const std::string& line) {
  env_.ConsumeCycles(40 + 8 * line.size());  // polled UART transmit is slow
  env_.uart().WriteLine(line);
}

Status KernelContext::ReserveRam(uint64_t bytes) {
  // Keep headroom for stacks and the agent's own blocks.
  uint64_t budget = env_.spec().ram_bytes * 3 / 4;
  if (ram_in_use_ + bytes > budget) {
    return ResourceExhaustedError(
        StrFormat("kernel heap exhausted: %llu in use, %llu requested, %llu budget",
                  static_cast<unsigned long long>(ram_in_use_),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(budget)));
  }
  ram_in_use_ += bytes;
  return OkStatus();
}

void KernelContext::ReleaseRam(uint64_t bytes) {
  ram_in_use_ = bytes > ram_in_use_ ? 0 : ram_in_use_ - bytes;
}

}  // namespace eof
