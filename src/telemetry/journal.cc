#include "src/telemetry/journal.h"

#include "src/common/strings.h"
#include "src/telemetry/rows.h"

namespace eof {
namespace telemetry {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<uint8_t>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<int>(static_cast<uint8_t>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Event::ToJsonLine() const {
  std::string line = StrFormat("{\"type\":\"%s\",\"t_us\":%llu", JsonEscape(type).c_str(),
                               static_cast<unsigned long long>(at));
  if (worker >= 0) {
    line += StrFormat(",\"worker\":%d", worker);
  }
  if (!fields.empty()) {
    line += ',';
    line += fields;
  }
  line += "}";
  return line;
}

bool MemoryEventSink::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  events_.push_back(event);
  return true;
}

std::vector<Event> MemoryEventSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

Result<std::unique_ptr<FileEventSink>> FileEventSink::Open(const std::string& path,
                                                           size_t buffer_lines) {
  FILE* file = fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError(StrFormat("cannot open metrics journal '%s'", path.c_str()));
  }
  return std::unique_ptr<FileEventSink>(
      new FileEventSink(file, std::max<size_t>(buffer_lines, 1)));
}

FileEventSink::~FileEventSink() {
  Flush();
  fclose(file_);
}

bool FileEventSink::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.push_back(event.ToJsonLine());
  if (buffer_.size() >= buffer_lines_) {
    FlushLocked();
  }
  return true;
}

void FileEventSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

void FileEventSink::FlushLocked() {
  for (const std::string& line : buffer_) {
    if (fprintf(file_, "%s\n", line.c_str()) < 0) {
      // Count this line and every remaining one: a full disk drops visibly.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  buffer_.clear();
  // The line buffer is the only buffer: a flushed batch is in the file.
  fflush(file_);
}

RotatingFileEventSink::RotatingFileEventSink(std::string stem, std::string suffix,
                                             uint64_t rotate_bytes)
    : stem_(std::move(stem)), suffix_(std::move(suffix)), rotate_bytes_(rotate_bytes) {}

std::string RotatingFileEventSink::SegmentName(const std::string& stem,
                                               const std::string& suffix,
                                               size_t index) {
  // Zero-padded so a lexicographic directory sort is segment order.
  return StrFormat("%s.%03zu%s", stem.c_str(), index, suffix.c_str());
}

Result<std::unique_ptr<RotatingFileEventSink>> RotatingFileEventSink::Open(
    const std::string& base_path, uint64_t rotate_bytes) {
  if (rotate_bytes == 0) {
    return InvalidArgumentError("RotatingFileEventSink: rotate_bytes must be positive");
  }
  std::string stem = base_path;
  std::string suffix;
  constexpr const char kJsonl[] = ".jsonl";
  constexpr size_t kJsonlLen = sizeof(kJsonl) - 1;
  if (stem.size() > kJsonlLen &&
      stem.compare(stem.size() - kJsonlLen, kJsonlLen, kJsonl) == 0) {
    stem.erase(stem.size() - kJsonlLen);
    suffix = kJsonl;
  }
  auto sink = std::unique_ptr<RotatingFileEventSink>(
      new RotatingFileEventSink(std::move(stem), std::move(suffix), rotate_bytes));
  std::string first = SegmentName(sink->stem_, sink->suffix_, 0);
  sink->file_ = fopen(first.c_str(), "w");
  if (sink->file_ == nullptr) {
    return UnavailableError(
        StrFormat("cannot open metrics journal segment '%s'", first.c_str()));
  }
  sink->segments_.push_back(std::move(first));
  return sink;
}

RotatingFileEventSink::~RotatingFileEventSink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    fclose(file_);
  }
}

bool RotatingFileEventSink::WriteLineLocked(const std::string& line) {
  if (fprintf(file_, "%s\n", line.c_str()) < 0 || fflush(file_) != 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  segment_bytes_ += line.size() + 1;
  ++segment_rows_;
  return true;
}

bool RotatingFileEventSink::RotateLocked() {
  std::string next = SegmentName(stem_, suffix_, segment_ + 1);
  FILE* next_file = fopen(next.c_str(), "w");
  if (next_file == nullptr) {
    return false;  // keep writing the current segment; nothing is lost
  }
  // Close the old segment with its manifest row, then open the new one with a
  // header row. Both are stamped at the last event's virtual time so rotation
  // never perturbs the journal's (virtual-time-only) determinism.
  WriteLineLocked(
      RowEvent(last_at_, -1, JournalRotateRow{segment_, segment_bytes_, segment_rows_, next})
          .ToJsonLine());
  fclose(file_);
  file_ = next_file;
  ++segment_;
  segment_bytes_ = 0;
  segment_rows_ = 0;
  segments_.push_back(next);
  WriteLineLocked(
      RowEvent(last_at_, -1, JournalSegmentRow{segment_, stem_ + suffix_}).ToJsonLine());
  return true;
}

bool RotatingFileEventSink::Emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  last_at_ = event.at;
  std::string line = event.ToJsonLine();
  // Rotate before the write that would push the segment past the cap, so every
  // segment (manifest row included) stays under rotate_bytes — except when one
  // line alone exceeds it. The cap check reserves room for the manifest row
  // that will close this segment, sized against the exact counters it would
  // carry if this line were the segment's last.
  if (segment_rows_ > 0) {
    JournalRotateRow rotate{segment_, segment_bytes_ + line.size() + 1, segment_rows_ + 1,
                            SegmentName(stem_, suffix_, segment_ + 1)};
    uint64_t close_cost = RowEvent(event.at, -1, rotate).ToJsonLine().size() + 1;
    if (segment_bytes_ + line.size() + 1 + close_cost > rotate_bytes_) {
      RotateLocked();
    }
  }
  return WriteLineLocked(line);
}

void RotatingFileEventSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  fflush(file_);
}

std::vector<std::string> RotatingFileEventSink::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_;
}

}  // namespace telemetry
}  // namespace eof
