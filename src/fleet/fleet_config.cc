#include "src/fleet/fleet_config.h"

namespace eof {
namespace fleet {

WireCampaignConfig ToWireConfig(const FuzzerConfig& config,
                                const std::string& campaign_id,
                                uint32_t total_shards) {
  WireCampaignConfig wire;
  wire.campaign_id = campaign_id;
  wire.os_name = config.os_name;
  wire.board_name = config.board_name;
  wire.seed = config.seed;
  wire.budget_us = config.budget;
  wire.max_execs = config.max_execs;
  wire.metrics_interval_us = config.metrics_interval;
  wire.total_shards = total_shards;
  wire.sample_points = config.sample_points;
  wire.periodic_reset_execs = config.periodic_reset_execs;
  wire.restore_mode = static_cast<uint8_t>(config.restore_mode);
  uint32_t flags = 0;
  if (config.coverage_feedback) flags |= kFlagCoverageFeedback;
  if (config.log_monitor) flags |= kFlagLogMonitor;
  if (config.exception_monitor) flags |= kFlagExceptionMonitor;
  if (config.watchdogs) flags |= kFlagWatchdogs;
  if (config.power_probe) flags |= kFlagPowerProbe;
  if (config.use_extended_specs) flags |= kFlagUseExtendedSpecs;
  if (config.inject_peripheral_events) flags |= kFlagInjectPeripheralEvents;
  if (config.overlapped_drain) flags |= kFlagOverlappedDrain;
  if (config.trim) flags |= kFlagTrim;
  wire.flags = flags;
  wire.seed_programs = config.seed_programs;
  return wire;
}

FuzzerConfig FromWireConfig(const WireCampaignConfig& wire) {
  FuzzerConfig config;
  config.os_name = wire.os_name;
  config.board_name = wire.board_name;
  config.seed = wire.seed;
  config.budget = wire.budget_us;
  config.max_execs = wire.max_execs;
  config.metrics_interval = wire.metrics_interval_us;
  config.sample_points = wire.sample_points;
  config.periodic_reset_execs = wire.periodic_reset_execs;
  config.restore_mode = static_cast<RestoreMode>(wire.restore_mode);
  config.coverage_feedback = (wire.flags & kFlagCoverageFeedback) != 0;
  config.log_monitor = (wire.flags & kFlagLogMonitor) != 0;
  config.exception_monitor = (wire.flags & kFlagExceptionMonitor) != 0;
  config.watchdogs = (wire.flags & kFlagWatchdogs) != 0;
  config.power_probe = (wire.flags & kFlagPowerProbe) != 0;
  config.use_extended_specs = (wire.flags & kFlagUseExtendedSpecs) != 0;
  config.inject_peripheral_events = (wire.flags & kFlagInjectPeripheralEvents) != 0;
  config.overlapped_drain = (wire.flags & kFlagOverlappedDrain) != 0;
  config.trim = (wire.flags & kFlagTrim) != 0;
  config.seed_programs = wire.seed_programs;
  config.metrics_out.clear();
  return config;
}

}  // namespace fleet
}  // namespace eof
