// KernelContext: the services every simulated kernel is written against. It plumbs
// coverage events into the target-RAM ring, kernel log output onto the UART, panics and
// assertion failures into the board's fault machinery (via signals the agent translates),
// and accounts RAM usage against the board's budget.
//
// One context exists per boot; it dies with the firmware instance on reset.

#ifndef SRC_KERNEL_KERNEL_CONTEXT_H_
#define SRC_KERNEL_KERNEL_CONTEXT_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/hw/image.h"
#include "src/hw/target_env.h"
#include "src/kernel/cov_ring.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_fault.h"

namespace eof {

class KernelContext {
 public:
  // `env` and `image` must outlive the context.
  KernelContext(TargetEnv& env, const FirmwareImage& image, CovRingLayout ring);

  // --- coverage (used via EOF_COV / EOF_COV_BUCKET) ---
  void Cov(const EdgeSite& site) { CovBucket(site, 0); }
  void CovBucket(const EdgeSite& site, uint64_t bucket);

  // Publishes the index of the program call about to execute into the ring's
  // current_call header word; every coverage entry appended afterwards carries it.
  // Cheap when the index is unchanged (the header word is cached).
  void SetCurrentCall(uint32_t call_index);

  // Marks the start of one agent resume window. The host only touches ring RAM
  // (drains, bank flips) while the target is stopped — i.e. between resume
  // windows — so the context caches the active bank and the dropped counter for
  // the window's duration and this call invalidates those caches.
  void BeginResumeWindow();

  // Inter-call yield: the agent parks between calls while the OS runs its housekeeping
  // (ticks, idle task, service threads). With instrumentation compiled in, that
  // housekeeping runs the instrumented build, which is where the bulk of the §5.5.2
  // execution overhead comes from.
  void YieldDelay();

  // True when the ring filled since the last host drain; the agent checks this after each
  // call and pauses at _kcmp_buf_full.
  bool cov_overflow_pending() const { return cov_overflow_pending_; }
  void ClearCovOverflow() { cov_overflow_pending_ = false; }

  // Self-service double buffering: if the host enabled bank flips (kBankFlipEnableBit)
  // and the parked bank has been collected (count == 0), parks the full active bank
  // and flips appends onto the other one, returning true. Returns false when flips
  // are disabled or the parked bank still holds undrained entries (backpressure) —
  // the agent must then pause at _kcmp_buf_full for host service. Only called at
  // call boundaries, so the capture windows match halt-mode drains exactly.
  bool TryBankFlip();

  // --- faults (§4.5.2 bug surfaces) ---
  [[noreturn]] void Panic(const std::string& message, const std::string& backtrace = "");
  [[noreturn]] void AssertFail(const std::string& message);
  [[noreturn]] void Hang(const std::string& message);

  // Kernel printk: one line on the UART.
  void LogLine(const std::string& line);

  // --- execution accounting ---
  void ConsumeCycles(uint64_t cycles) { env_.ConsumeCycles(cycles); }
  bool HasPeripheral(Peripheral peripheral) const { return env_.HasPeripheral(peripheral); }

  // --- kernel heap budget (kernels track their arena bytes here; exceeding the board's
  // RAM fails the allocation rather than the board) ---
  Status ReserveRam(uint64_t bytes);
  void ReleaseRam(uint64_t bytes);
  uint64_t ram_in_use() const { return ram_in_use_; }

  // Deterministic kernel-internal jitter (tick phase, allocator placement).
  Rng& rng() { return rng_; }

  TargetEnv& env() { return env_; }
  const FirmwareImage& image() const { return image_; }

  // Total coverage events and instrumented events since boot (tests, overhead bench).
  uint64_t cov_events() const { return cov_events_; }
  uint64_t cov_instrumented_events() const { return cov_instrumented_events_; }

 private:
  TargetEnv& env_;
  const FirmwareImage& image_;
  CovRingLayout ring_;
  Rng rng_;

  // module-name pointer -> layout and instrumentation verdict (module names are string
  // literals, so pointer identity is a valid cache key; a miss falls back to by-value
  // lookup).
  struct CachedModule {
    const ModuleLayout* layout = nullptr;
    bool covered = false;  // InstrumentationOptions::Covers
  };
  std::unordered_map<const void*, CachedModule> layout_cache_;
  const void* last_module_ = nullptr;  // the module of the last event, and its entry
  CachedModule last_cached_;

  bool cov_overflow_pending_ = false;

  // Per-resume-window caches (see BeginResumeWindow); valid_* gates the RAM read.
  bool bank_valid_ = false;
  uint32_t active_bank_ = 0;
  bool dropped_valid_ = false;
  uint32_t dropped_ = 0;
  bool current_call_valid_ = false;
  uint32_t current_call_ = 0;

  uint64_t ram_in_use_ = 0;
  uint64_t cov_events_ = 0;
  uint64_t cov_instrumented_events_ = 0;
};

}  // namespace eof

#endif  // SRC_KERNEL_KERNEL_CONTEXT_H_
