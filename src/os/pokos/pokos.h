// The POK-like target OS ("PoKOS"): an ARINC-653-flavoured partitioned kernel — the
// target GUSTAVE fuzzes in the paper's evaluation. Spatial/temporal partitions, intra-
// partition threads, and sampling/queuing ports for inter-partition communication.

#ifndef SRC_OS_POKOS_POKOS_H_
#define SRC_OS_POKOS_POKOS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/handle_table.h"
#include "src/kernel/os.h"

namespace eof {
namespace pokos {

// POK return codes.
inline constexpr int64_t POK_ERRNO_OK = 0;
inline constexpr int64_t POK_ERRNO_EINVAL = 1;
inline constexpr int64_t POK_ERRNO_TOOMANY = 5;
inline constexpr int64_t POK_ERRNO_UNAVAILABLE = 2;
inline constexpr int64_t POK_ERRNO_EMPTY = 3;
inline constexpr int64_t POK_ERRNO_FULL = 4;
inline constexpr int64_t POK_ERRNO_MODE = 8;

enum class PartitionMode : uint8_t { kIdle = 0, kColdStart = 1, kWarmStart = 2, kNormal = 3 };

struct PokPartition {
  std::string name;
  uint64_t memory_bytes = 0;
  uint64_t time_slice_ms = 0;
  PartitionMode mode = PartitionMode::kColdStart;
  uint32_t thread_count = 0;
};

struct PokThread {
  int64_t partition = 0;
  uint32_t priority = 0;
  uint64_t period_ms = 0;
  bool started = false;
};

struct SamplingPort {
  std::string name;
  uint32_t max_size = 0;
  bool is_source = false;
  std::vector<uint8_t> last_message;
  uint64_t last_write_tick = 0;
  uint64_t validity_ms = 0;
};

struct QueuingPort {
  std::string name;
  uint32_t max_size = 0;
  uint32_t depth = 0;
  bool is_source = false;
  std::deque<std::vector<uint8_t>> queue;
};

struct PokState {
  HandleTable<PokPartition> partitions{8};
  HandleTable<PokThread> threads{32};
  HandleTable<SamplingPort> sampling_ports{16};
  HandleTable<QueuingPort> queuing_ports{16};
  uint64_t tick_ms = 0;
};

class PokOs : public Os {
 public:
  const std::string& name() const override { return name_; }
  const ApiRegistry& registry() const override { return Apis(); }
  Result<int64_t> CallApi(KernelContext& ctx, uint32_t id,
                          const std::vector<ArgValue>& args) override {
    return Apis().Call(ctx, state_, id, args);
  }
  Status Init(KernelContext& ctx) override;
  std::string exception_symbol() const override { return "pok_fatal"; }
  OsFootprint footprint() const override;
  std::vector<std::pair<std::string, uint64_t>> modules() const override;
  void Tick(KernelContext& ctx) override;

  PokState& state_for_test() { return state_; }

 private:
  std::string name_ = "pokos";
  PokState state_;

  static const ApiTable<PokState>& Apis();
};

Status RegisterPokOs();

}  // namespace pokos
}  // namespace eof

#endif  // SRC_OS_POKOS_POKOS_H_
