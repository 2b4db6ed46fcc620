// The RT-Thread-like target OS (paper target #2; 8 of the 19 Table-2 bugs live here).

#ifndef SRC_OS_RTTHREAD_RTTHREAD_H_
#define SRC_OS_RTTHREAD_RTTHREAD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/os.h"
#include "src/os/rtthread/state.h"

namespace eof {
namespace rtthread {

class RtThreadOs : public Os {
 public:
  const std::string& name() const override { return name_; }
  const ApiRegistry& registry() const override { return Apis(); }
  Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                          const std::vector<ArgValue>& args) override {
    return Apis().Call(ctx, state_, id, args);
  }
  Status Init(KernelContext& ctx) override;
  std::string exception_symbol() const override { return "common_exception"; }
  OsFootprint footprint() const override;
  std::vector<std::pair<std::string, uint64_t>> modules() const override;
  void Tick(KernelContext& ctx) override;
  void OnPeripheralEvent(KernelContext& ctx, const PeripheralEvent& event) override;

  RtThreadState& state_for_test() { return state_; }

 private:
  std::string name_ = "rtthread";
  RtThreadState state_;

  static const ApiTable<RtThreadState>& Apis();
};

Status RegisterRtThreadOs();

}  // namespace rtthread
}  // namespace eof

#endif  // SRC_OS_RTTHREAD_RTTHREAD_H_
