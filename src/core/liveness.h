// Liveness watchdogs and state restoration — Algorithm 1 of the paper.
//
// Watchdog #1: a debug-link/connection timeout means the target failed to boot or became
// entirely unresponsive. Watchdog #2: when exec-continue fails to change the PC, the core
// is not executing instructions. Both are host-side and need no target instrumentation.
// Restoration restores every partition at its table offset and reboots (a plain reboot
// is insufficient when flash was damaged). The restore is a DELTA reflash: partitions
// whose on-flash bytes a target-assisted checksum proves unchanged are skipped, so
// Algorithm 1 pays the 5 us/byte flash-programming cost only for what the run actually
// corrupted — the dominant saving of the §5.5 link-overhead work.

#ifndef SRC_CORE_LIVENESS_H_
#define SRC_CORE_LIVENESS_H_

#include <optional>

#include "src/common/status.h"
#include "src/core/deployment.h"
#include "src/hw/board_snapshot.h"

namespace eof {

enum class LivenessVerdict {
  kAlive,
  kConnectionTimeout,  // watchdog #1
  kPcStall,            // watchdog #2
  kPowerPlateau,       // §6 extension: flat high draw = tight loop
};

const char* LivenessVerdictName(LivenessVerdict verdict);

class LivenessWatchdog {
 public:
  // One check: samples the PC; on a link/timeout failure reports kConnectionTimeout; if
  // the PC equals the previous sample reports kPcStall (Algorithm 1 lines 4-11).
  LivenessVerdict Check(DebugPort& port);

  // §6 extension: additionally sample the supply-rail ammeter. Two consecutive samples
  // pinned at the tight-loop plateau flag the target before the PC protocol would.
  // Enabled with EnablePowerProbe().
  void EnablePowerProbe() { power_probe_ = true; }

  // Forget the PC and power history (call after restoration).
  void Reset() {
    last_pc_.reset();
    plateau_strikes_ = 0;
  }

 private:
  // Current draw at or above this, twice in a row, reads as a no-WFI spin loop.
  static constexpr uint32_t kPlateauMilliAmps = 100;

  std::optional<uint64_t> last_pc_;
  bool power_probe_ = false;
  int plateau_strikes_ = 0;
};

// StateRestoration (Algorithm 1 lines 12-19): reflash every partition from the image's
// partition table and reboot. Returns the restored target parked at agent start.
Status StateRestoration(Deployment& deployment);

// Snapshot-aware restoration (RestoreMode::kSnapshot): tries the warm fast path —
// BoardSnapshot::Restore, microseconds-scale instead of reflash+300ms reboot — and
// on ANY mid-restore failure (severed link, flash-shadow mismatch, warm boot
// failure) falls back to the full StateRestoration above, so the board is never
// left half-restored. `used_snapshot`, when non-null, reports which path completed.
// A null snapshot degrades to plain StateRestoration.
Status StateRestorationWithSnapshot(Deployment& deployment, const BoardSnapshot* snapshot,
                                    bool* used_snapshot = nullptr);

}  // namespace eof

#endif  // SRC_CORE_LIVENESS_H_
