// Bridges between the engine's FuzzerConfig and its wire form. Lives apart from
// proto.h so the codec layer stays free of core dependencies.

#ifndef SRC_FLEET_FLEET_CONFIG_H_
#define SRC_FLEET_FLEET_CONFIG_H_

#include <string>

#include "src/core/fuzzer.h"
#include "src/fleet/proto.h"

namespace eof {
namespace fleet {

// The CLI-settable slice of `config`, ready to ship in a LeaseGrant. Generator
// and instrumentation tuning are not carried and stay at their defaults.
WireCampaignConfig ToWireConfig(const FuzzerConfig& config,
                                const std::string& campaign_id,
                                uint32_t total_shards);

// Reconstructs a worker-side FuzzerConfig. `metrics_out` is always empty — the
// fleet worker journals through its own shared sink, never through a scheduler-
// owned file.
FuzzerConfig FromWireConfig(const WireCampaignConfig& wire);

}  // namespace fleet
}  // namespace eof

#endif  // SRC_FLEET_FLEET_CONFIG_H_
