// Per-board flight recorder: three bounded ring buffers capturing the last N
// debug-port operations, UART lines, and executor events of one board session.
// When a monitor fires or a liveness watchdog trips, the executor dumps the rings
// as a structured crash report — the post-hoc context (what the link was doing,
// what the target last printed, what the session was executing) that a deduped
// BugSignature alone cannot carry.
//
// Hot-path discipline: every ring slot is preallocated at construction and appends
// copy plain values (or truncate into fixed char buffers), so recording performs no
// heap allocation and never touches the virtual clock or any RNG — fuzzing results
// are bit-identical with the recorder attached or not. A recorder belongs to one
// board session and is written from that session's thread only (the same
// confinement rule as Tracer); distinct boards record concurrently without sharing.

#ifndef SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/vclock.h"

namespace eof {
namespace telemetry {

// Debug-port operation classes the recorder distinguishes. Coarser than PortOp
// (run-control and UART drains are recorded too) but fine enough to reconstruct
// the link conversation leading up to a crash.
enum class FlightPortOp : uint8_t {
  kRead,
  kWrite,
  kSubU32,
  kSetBreakpoint,
  kContinue,       // exec-continue round trip; address = stop pc when it returned
  kReadPc,
  kChecksum,
  kFlash,
  kReset,
  kUartDrain,      // size = drained bytes
  kPeripheral,
  kWarmRestore,    // snapshot-path core restore (no boot ROM)
};

// Short stable mnemonic for rendering ("rd", "wr", "cont", ...).
const char* FlightPortOpName(FlightPortOp op);

// Fixed-size record of one link operation. Plain values only: appending is a
// couple of stores into a preallocated slot.
struct PortOpRecord {
  VirtualTime at = 0;
  FlightPortOp op = FlightPortOp::kRead;
  uint64_t address = 0;
  uint64_t size = 0;
  bool ok = true;
};

// One captured UART line, truncated into an inline buffer so the hot path never
// allocates. `length` is the kept byte count.
inline constexpr size_t kUartLineCapacity = 96;
struct UartLineRecord {
  VirtualTime at = 0;
  uint16_t length = 0;
  char text[kUartLineCapacity] = {};

  std::string_view Line() const { return std::string_view(text, length); }
};

// One executor lifecycle event. `label` must point at a string literal (or other
// storage outliving the recorder) — the recorder stores the pointer, not a copy.
struct ExecEventRecord {
  VirtualTime at = 0;
  const char* label = "";
  uint64_t value = 0;
};

// A point-in-time copy of the rings, oldest entry first, plus lifetime totals so
// a consumer can tell how much history the bounds discarded.
struct FlightDump {
  std::string reason;          // what triggered the dump ("crash", "pc_stall", ...)
  std::string last_restore = "none";  // restore mode preceding the trigger
                                      // ("none" | "cold" | "snapshot")
  VirtualTime at = 0;          // board clock at dump time
  uint64_t port_ops_seen = 0;  // lifetime appends (>= port_ops.size() when wrapped)
  uint64_t uart_lines_seen = 0;
  uint64_t events_seen = 0;
  std::vector<PortOpRecord> port_ops;
  std::vector<std::string> uart_tail;
  std::vector<ExecEventRecord> events;

  // The individual rings as newline-joined text columns ("t=... rd addr=0x... " /
  // raw UART lines / "t=... label=value"): the form crash_dump rows and
  // BugReport carry.
  std::string PortOpsText() const;
  std::string UartTailText() const;
  std::string EventsText() const;
};

class FlightRecorder {
 public:
  struct Options {
    size_t port_op_capacity = 128;
    size_t uart_line_capacity = 48;
    size_t event_capacity = 64;
  };

  FlightRecorder();  // default capacities (gcc needs the nested-Options default
                     // argument out of line, so this delegates in the .cc)
  explicit FlightRecorder(Options options);

  // Appends one link-operation record (overwrites the oldest beyond capacity).
  void RecordPortOp(VirtualTime at, FlightPortOp op, uint64_t address, uint64_t size,
                    bool ok);

  // Splits `text` on '\n' and appends each non-empty line (truncated to
  // kUartLineCapacity bytes) to the UART ring.
  void RecordUartText(VirtualTime at, std::string_view text);

  // Appends one executor event. `label` must be a string literal.
  void RecordEvent(VirtualTime at, const char* label, uint64_t value = 0);

  // Forgets all recorded history (the session totals included). Cold boots call
  // this — a power cycle wipes the board-session context the rings describe —
  // while snapshot restores leave the rings running, since the session continues.
  void Clear();

  // Lifetime append totals (not bounded by capacity).
  uint64_t port_ops_seen() const { return port_ops_seen_; }
  uint64_t uart_lines_seen() const { return uart_lines_seen_; }
  uint64_t events_seen() const { return events_seen_; }

  // Copies the rings out, oldest first. Allocation happens here (the cold path),
  // never during recording.
  FlightDump Dump(const char* reason, VirtualTime at) const;

 private:
  std::vector<PortOpRecord> port_ops_;
  std::vector<UartLineRecord> uart_lines_;
  std::vector<ExecEventRecord> events_;
  uint64_t port_ops_seen_ = 0;
  uint64_t uart_lines_seen_ = 0;
  uint64_t events_seen_ = 0;
};

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_FLIGHT_RECORDER_H_
