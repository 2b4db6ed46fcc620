// Bug monitors (§4.5.2): the log monitor greps UART output against crash patterns with
// regular expressions; the exception monitor plants breakpoints on the target OS's
// exception functions and recognises stops there.

#ifndef SRC_CORE_MONITORS_H_
#define SRC_CORE_MONITORS_H_

#include <optional>
#include <regex>
#include <string>
#include <vector>

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
  // Default pattern set covering the four OSs' crash banners.
  LogMonitor();

  // Adds a pattern (ECMAScript regex, matched per line).
  Status AddPattern(const std::string& pattern, const std::string& kind);

  // Scans captured UART text; returns the first match.
  std::optional<BugSignature> Scan(const std::string& uart_text) const;

 private:
  struct Pattern {
    std::regex regex;
    std::string kind;
  };
  std::vector<Pattern> patterns_;
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
