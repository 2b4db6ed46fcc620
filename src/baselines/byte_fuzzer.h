// Byte-buffer baseline fuzzers:
//   * GDBFuzz — on-hardware, no target instrumentation; coverage observed by rotating the
//     board's few hardware breakpoints over statically-known basic blocks; AFL-style
//     buffers into an application entry point.
//   * SHIFT — semihosting instrumentation (full coverage, expensive traps), AFL-style
//     buffers into an application entry point, on hardware.
//   * GUSTAVE — emulation (QEMU+TCG coverage), AFL-style buffer decoded into a syscall
//     sequence, timeout-only detection. Runs against PoKOS.
//
// All three share this loop; `mode` selects instrumentation, coverage source, and input
// construction.

#ifndef SRC_BASELINES_BYTE_FUZZER_H_
#define SRC_BASELINES_BYTE_FUZZER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/core/deployment.h"
#include "src/core/fuzzer.h"
#include "src/core/scheduler.h"
#include "src/fuzz/byte_mutator.h"

namespace eof {

enum class ByteFuzzerMode {
  kGdbFuzz,
  kShift,
  kGustave,
};

const char* ByteFuzzerModeName(ByteFuzzerMode mode);

struct ByteFuzzerConfig {
  ByteFuzzerMode mode = ByteFuzzerMode::kGdbFuzz;
  std::string os_name = "freertos";
  std::string board_name;  // "" = OS default (GUSTAVE overrides to QEMU)

  // Application entry the buffers feed: "http" (http_handle_raw) or "json" (json_parse).
  // Ignored by GUSTAVE, which decodes buffers into PoKOS syscall sequences.
  std::string entry = "http";

  uint64_t seed = 1;
  VirtualDuration budget = 10 * kVirtualMinute;
  uint32_t sample_points = 96;
  uint64_t max_input_len = 512;
};

class ByteFuzzer {
 public:
  explicit ByteFuzzer(ByteFuzzerConfig config) : config_(std::move(config)) {}

  Result<CampaignResult> Run();

 private:
  struct SeedEntry {
    std::vector<uint8_t> bytes;
    uint64_t new_hits = 0;
  };

  Status Setup();
  // Per-op link traffic of the published tools (see byte_fuzzer.cc).
  Status PublishTestCase(const std::vector<uint8_t>& encoded);
  Result<std::vector<CovHit>> DrainRing();
  Status Restore();
  // Rotates hardware breakpoints onto not-yet-hit candidate blocks (GDBFuzz only).
  Status PlantBreakpoints();
  // Recycles planted-but-silent probes back into the candidate queue.
  Status RotateBreakpoints();
  // Initial seed corpus for the entry (valid requests / documents, as the real tools ship).
  void SeedCorpus();
  std::vector<uint8_t> NextInput();
  WireProgram BuildProgram(const std::vector<uint8_t>& input);
  // Executes; returns number of newly-observed coverage units.
  Result<uint64_t> ExecuteOne(const WireProgram& program);
  void MaybeSample();

  ByteFuzzerConfig config_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<fuzz::ByteMutator> mutator_;

  // API ids resolved from the target registry.
  uint32_t entry_api_ = 0;
  uint32_t setup_api_ = 0;  // http_server_start when entry == "http"
  bool has_setup_ = false;
  size_t gustave_api_count_ = 0;
  std::vector<std::vector<ArgKind>> gustave_signatures_;

  // Coverage accounting.
  CoverageMap coverage_;                      // ring-based (SHIFT / GUSTAVE)
  std::unordered_set<uint64_t> bb_hit_;       // breakpoint-based (GDBFuzz)
  std::vector<uint64_t> bb_candidates_;       // unplanted, unhit candidate blocks
  std::unordered_set<uint64_t> bb_planted_;

  std::vector<SeedEntry> corpus_;
  CampaignResult result_;
  uint64_t executor_main_addr_ = 0;
  VirtualTime start_time_ = 0;
  std::optional<SeriesSampler> sampler_;  // shared series recorder (scheduler.h)

  uint64_t CoverageCount() const {
    return config_.mode == ByteFuzzerMode::kGdbFuzz ? bb_hit_.size() : coverage_.Count();
  }
};

}  // namespace eof

#endif  // SRC_BASELINES_BYTE_FUZZER_H_
