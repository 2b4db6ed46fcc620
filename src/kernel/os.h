// The embedded-OS interface the agent runs against, plus the global registry of supported
// OSs (FreeRTOS, RT-Thread, NuttX, Zephyr, PoKOS — §4.6 "Embedded OS Adaptation").
//
// Kernel state is per boot: a fresh Os instance is constructed for every boot, so it resets
// with the board. The API table is per process: each OS builds it once, on first use, and
// every boot dispatches through it with its own state.

#ifndef SRC_KERNEL_OS_H_
#define SRC_KERNEL_OS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/hw/board_spec.h"
#include "src/hw/peripheral_events.h"
#include "src/kernel/api.h"
#include "src/kernel/kernel_context.h"

namespace eof {

// Static code footprint of an OS build, used for image sizing and the §5.5.1 memory-
// overhead accounting. `edge_sites` is the number of instrumentable coverage sites the
// build contains (maintained per OS; validated against dynamic observations in tests).
struct OsFootprint {
  uint64_t base_image_bytes = 0;
  uint64_t edge_sites = 0;
};

class Os {
 public:
  virtual ~Os() = default;

  virtual const std::string& name() const = 0;

  // The full API surface, including pseudo-syscalls. Shared by every instance of this OS.
  virtual const ApiRegistry& registry() const = 0;

  // Dispatches call `id` of registry() against this boot's kernel state.
  virtual Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                                  const std::vector<ArgValue>& args) = 0;

  // Boot-time initialization (scheduler, heaps, device tables). Emits the boot banner.
  virtual Status Init(KernelContext& ctx) = 0;

  // Symbol of the OS's central exception function — where the exception monitor plants its
  // breakpoint (panic_handler in FreeRTOS, common_exception in RT-Thread, ...).
  virtual std::string exception_symbol() const = 0;

  virtual OsFootprint footprint() const = 0;

  // Coverage modules this OS contributes, with per-module basic-block estimates.
  // The image builder declares these as ModuleLayouts.
  virtual std::vector<std::pair<std::string, uint64_t>> modules() const = 0;

  // Optional housekeeping between test-case calls (tick processing, timer expiry).
  virtual void Tick(KernelContext& ctx) { (void)ctx; }

  // Interrupt-path entry for injected peripheral events (§6 extension). The default OS
  // has no handler wired; targets that model ISR paths override this.
  virtual void OnPeripheralEvent(KernelContext& ctx, const PeripheralEvent& event) {
    (void)ctx;
    (void)event;
  }
};

using OsFactory = std::function<std::unique_ptr<Os>()>;

// Registry entry describing a supported OS: its factory plus the deployment metadata the
// paper's "register the target OS in EOF" step supplies (~100 LoC of target registration).
struct OsInfo {
  std::string name;
  OsFactory factory;
  std::vector<Arch> supported_archs;
  std::string default_board;  // catalog name of the board the evaluation uses
  std::string description;
};

// Global OS registry. Registration happens in each OS's RegisterXxxOs() function, invoked
// from RegisterAllOses() (src/os/all_oses.h) so binaries pick up every target.
class OsRegistry {
 public:
  static OsRegistry& Instance();

  Status Register(OsInfo info);
  Result<OsInfo> Find(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::vector<OsInfo> infos_;
};

}  // namespace eof

#endif  // SRC_KERNEL_OS_H_
