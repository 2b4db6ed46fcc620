#include "src/core/monitors.h"

#include <string_view>

namespace eof {
namespace {

struct CrashLiteral {
  std::string_view text;
  const char* kind;
};

// The cross-OS crash vocabulary in match order: panic banners, fatal exceptions,
// assertion reports ("ASSERT" also covers NuttX's DEBUGASSERT).
constexpr CrashLiteral kCrashVocabulary[] = {
    {"BUG: kernel panic", "panic"},
    {"BUG: unexpected stop", "panic"},
    {"Guru Meditation Error", "panic"},
    {"FATAL EXCEPTION", "panic"},
    {"FATAL:", "panic"},
    {"up_assert: PANIC!", "panic"},
    {"Kernel panic", "panic"},
    {"assertion failed", "assertion"},
    {"Assertion failed", "assertion"},
    {"ASSERT", "assertion"},
};

}  // namespace

std::optional<BugSignature> LogMonitor::Scan(const std::string& uart_text) const {
  std::string_view rest = uart_text;
  while (!rest.empty()) {
    size_t end = rest.find('\n');
    std::string_view line = rest.substr(0, end);
    rest = end == std::string_view::npos ? std::string_view() : rest.substr(end + 1);
    for (const CrashLiteral& literal : kCrashVocabulary) {
      if (line.find(literal.text) != std::string_view::npos) {
        BugSignature signature;
        signature.detector = "log";
        signature.kind = literal.kind;
        signature.excerpt = std::string(line);
        return signature;
      }
    }
  }
  return std::nullopt;
}

Status ExceptionMonitor::Arm(Deployment& deployment, const std::string& exception_symbol) {
  ASSIGN_OR_RETURN(uint64_t address, Resolve(deployment, exception_symbol));
  return deployment.port().SetBreakpoint(address);
}

Result<uint64_t> ExceptionMonitor::Resolve(Deployment& deployment,
                                           const std::string& exception_symbol) {
  ASSIGN_OR_RETURN(uint64_t address, deployment.SymbolAddress(exception_symbol));
  symbol_ = exception_symbol;
  return address;
}

bool ExceptionMonitor::IsExceptionStop(const StopInfo& stop) const {
  return !symbol_.empty() && stop.reason == HaltReason::kBreakpoint &&
         stop.symbol == symbol_;
}

}  // namespace eof
