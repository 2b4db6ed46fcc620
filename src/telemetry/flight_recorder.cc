#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace eof {
namespace telemetry {

const char* FlightPortOpName(FlightPortOp op) {
  switch (op) {
    case FlightPortOp::kRead:
      return "rd";
    case FlightPortOp::kWrite:
      return "wr";
    case FlightPortOp::kSubU32:
      return "sub32";
    case FlightPortOp::kSetBreakpoint:
      return "bp";
    case FlightPortOp::kContinue:
      return "cont";
    case FlightPortOp::kReadPc:
      return "pc";
    case FlightPortOp::kChecksum:
      return "cksum";
    case FlightPortOp::kFlash:
      return "flash";
    case FlightPortOp::kReset:
      return "reset";
    case FlightPortOp::kUartDrain:
      return "uart";
    case FlightPortOp::kPeripheral:
      return "periph";
    case FlightPortOp::kWarmRestore:
      return "warm";
  }
  return "?";
}

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options options) {
  port_ops_.resize(std::max<size_t>(options.port_op_capacity, 1));
  uart_lines_.resize(std::max<size_t>(options.uart_line_capacity, 1));
  events_.resize(std::max<size_t>(options.event_capacity, 1));
}

void FlightRecorder::RecordPortOp(VirtualTime at, FlightPortOp op, uint64_t address,
                                  uint64_t size, bool ok) {
  PortOpRecord& slot = port_ops_[port_ops_seen_ % port_ops_.size()];
  slot.at = at;
  slot.op = op;
  slot.address = address;
  slot.size = size;
  slot.ok = ok;
  ++port_ops_seen_;
}

void FlightRecorder::RecordUartText(VirtualTime at, std::string_view text) {
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    size_t length = end - begin;
    if (length > 0) {
      UartLineRecord& slot = uart_lines_[uart_lines_seen_ % uart_lines_.size()];
      slot.at = at;
      slot.length = static_cast<uint16_t>(std::min(length, kUartLineCapacity));
      std::memcpy(slot.text, text.data() + begin, slot.length);
      ++uart_lines_seen_;
    }
    begin = end + 1;
  }
}

void FlightRecorder::RecordEvent(VirtualTime at, const char* label, uint64_t value) {
  ExecEventRecord& slot = events_[events_seen_ % events_.size()];
  slot.at = at;
  slot.label = label;
  slot.value = value;
  ++events_seen_;
}

void FlightRecorder::Clear() {
  // The ring slots need no scrubbing: Dump() only walks [seen - kept, seen), so
  // zeroing the lifetime counters is enough to forget everything.
  port_ops_seen_ = 0;
  uart_lines_seen_ = 0;
  events_seen_ = 0;
}

namespace {

// Appends `value` in `base` without a temporary string: a first sighting renders
// a whole ring of records per column.
void AppendNumber(std::string* out, uint64_t value, int base = 10) {
  char digits[24];
  out->append(digits, std::to_chars(digits, digits + sizeof(digits), value, base).ptr);
}

// Copies a ring out oldest-first: entries [seen - kept, seen) in append order.
template <typename Record, typename Push>
void UnrollRing(const std::vector<Record>& ring, uint64_t seen, Push push) {
  uint64_t kept = std::min<uint64_t>(seen, ring.size());
  for (uint64_t i = seen - kept; i < seen; ++i) {
    push(ring[i % ring.size()]);
  }
}

}  // namespace

FlightDump FlightRecorder::Dump(const char* reason, VirtualTime at) const {
  FlightDump dump;
  dump.reason = reason;
  dump.at = at;
  dump.port_ops_seen = port_ops_seen_;
  dump.uart_lines_seen = uart_lines_seen_;
  dump.events_seen = events_seen_;
  UnrollRing(port_ops_, port_ops_seen_,
             [&dump](const PortOpRecord& record) { dump.port_ops.push_back(record); });
  UnrollRing(uart_lines_, uart_lines_seen_, [&dump](const UartLineRecord& record) {
    dump.uart_tail.push_back(std::string(record.Line()));
  });
  UnrollRing(events_, events_seen_,
             [&dump](const ExecEventRecord& record) { dump.events.push_back(record); });
  return dump;
}

std::string FlightDump::PortOpsText() const {
  std::string out;
  for (const PortOpRecord& record : port_ops) {
    if (!out.empty()) {
      out += '\n';
    }
    // "t=%llu %s addr=0x%llx size=%llu" and " FAIL" when the op failed.
    out += "t=";
    AppendNumber(&out, record.at);
    out += ' ';
    out += FlightPortOpName(record.op);
    out += " addr=0x";
    AppendNumber(&out, record.address, 16);
    out += " size=";
    AppendNumber(&out, record.size);
    if (!record.ok) {
      out += " FAIL";
    }
  }
  return out;
}

std::string FlightDump::EventsText() const {
  std::string out;
  for (const ExecEventRecord& record : events) {
    if (!out.empty()) {
      out += '\n';
    }
    out += "t=";
    AppendNumber(&out, record.at);
    out += ' ';
    out += record.label;
    out += '=';
    AppendNumber(&out, record.value);
  }
  return out;
}

std::string FlightDump::UartTailText() const {
  std::string out;
  for (const std::string& line : uart_tail) {
    if (!out.empty()) {
      out += '\n';
    }
    out += line;
  }
  return out;
}

}  // namespace telemetry
}  // namespace eof
