// The NuttX-like target OS (paper target #3): POSIX-flavoured RTOS surface.

#ifndef SRC_OS_NUTTX_NUTTX_H_
#define SRC_OS_NUTTX_NUTTX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/os.h"
#include "src/os/nuttx/state.h"

namespace eof {
namespace nuttx {

class NuttxOs : public Os {
 public:
  const std::string& name() const override { return name_; }
  const ApiRegistry& registry() const override { return Apis(); }
  Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                          const std::vector<ArgValue>& args) override {
    return Apis().Call(ctx, state_, id, args);
  }
  Status Init(KernelContext& ctx) override;
  std::string exception_symbol() const override { return "up_assert"; }
  OsFootprint footprint() const override;
  std::vector<std::pair<std::string, uint64_t>> modules() const override;
  void Tick(KernelContext& ctx) override;

  NuttxState& state_for_test() { return state_; }

 private:
  std::string name_ = "nuttx";
  NuttxState state_;

  static const ApiTable<NuttxState>& Apis();
};

Status RegisterNuttxOs();

}  // namespace nuttx
}  // namespace eof

#endif  // SRC_OS_NUTTX_NUTTX_H_
