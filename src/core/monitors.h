// Bug monitors (§4.5.2): the log monitor greps UART output for the cross-OS crash
// vocabulary (literal substrings, matched per line); the exception monitor plants
// breakpoints on the target OS's exception functions and recognises stops there.

#ifndef SRC_CORE_MONITORS_H_
#define SRC_CORE_MONITORS_H_

#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/core/deployment.h"
#include "src/hw/stop_info.h"

namespace eof {

struct BugSignature {
  std::string detector;  // "log" | "exception"
  std::string kind;      // "panic" | "assertion"
  std::string excerpt;   // the matching line / handler symbol
};

class LogMonitor {
 public:
  // Scans captured UART text line by line; returns the first line carrying a crash
  // banner, assertion report or fatal exception, with the kind of the first
  // vocabulary entry it contains.
  std::optional<BugSignature> Scan(const std::string& uart_text) const;
};

class ExceptionMonitor {
 public:
  // Plants a breakpoint on the OS exception function named by the image.
  Status Arm(Deployment& deployment, const std::string& exception_symbol);

  // Resolves the exception symbol and records it for IsExceptionStop without arming —
  // callers that coalesce breakpoint programming into one vectored batch (the executor's
  // ArmBreakpoints) plant the returned address themselves.
  Result<uint64_t> Resolve(Deployment& deployment, const std::string& exception_symbol);

  // True when `stop` is a breakpoint hit on the armed exception function.
  bool IsExceptionStop(const StopInfo& stop) const;

  const std::string& symbol() const { return symbol_; }

 private:
  std::string symbol_;
};

}  // namespace eof

#endif  // SRC_CORE_MONITORS_H_
