// The FreeRTOS-like target OS (paper target #1, evaluated on ESP32).

#ifndef SRC_OS_FREERTOS_FREERTOS_H_
#define SRC_OS_FREERTOS_FREERTOS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/os.h"
#include "src/os/freertos/state.h"

namespace eof {
namespace freertos {

class FreeRtosOs : public Os {
 public:
  const std::string& name() const override { return name_; }
  const ApiRegistry& registry() const override { return Apis(); }
  Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                          const std::vector<ArgValue>& args) override {
    return Apis().Call(ctx, state_, id, args);
  }
  Status Init(KernelContext& ctx) override;
  std::string exception_symbol() const override { return "panic_handler"; }
  OsFootprint footprint() const override;
  std::vector<std::pair<std::string, uint64_t>> modules() const override;
  void Tick(KernelContext& ctx) override;
  void OnPeripheralEvent(KernelContext& ctx, const PeripheralEvent& event) override;

  // Test access to internal kernel state.
  FreeRtosState& state_for_test() { return state_; }

 private:
  std::string name_ = "freertos";
  FreeRtosState state_;

  static const ApiTable<FreeRtosState>& Apis();
};

// Adds FreeRTOS to the global OS registry (idempotent-unsafe; call once via
// RegisterAllOses()).
Status RegisterFreeRtosOs();

}  // namespace freertos
}  // namespace eof

#endif  // SRC_OS_FREERTOS_FREERTOS_H_
