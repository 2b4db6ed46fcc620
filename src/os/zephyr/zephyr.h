// The Zephyr-like target OS (paper target #4).

#ifndef SRC_OS_ZEPHYR_ZEPHYR_H_
#define SRC_OS_ZEPHYR_ZEPHYR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/os.h"
#include "src/os/zephyr/state.h"

namespace eof {
namespace zephyr {

class ZephyrOs : public Os {
 public:
  const std::string& name() const override { return name_; }
  const ApiRegistry& registry() const override { return Apis(); }
  Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                          const std::vector<ArgValue>& args) override {
    return Apis().Call(ctx, state_, id, args);
  }
  Status Init(KernelContext& ctx) override;
  std::string exception_symbol() const override { return "z_fatal_error"; }
  OsFootprint footprint() const override;
  std::vector<std::pair<std::string, uint64_t>> modules() const override;
  void Tick(KernelContext& ctx) override;

  ZephyrState& state_for_test() { return state_; }

 private:
  std::string name_ = "zephyr";
  ZephyrState state_;

  static const ApiTable<ZephyrState>& Apis();
};

Status RegisterZephyrOs();

}  // namespace zephyr
}  // namespace eof

#endif  // SRC_OS_ZEPHYR_ZEPHYR_H_
