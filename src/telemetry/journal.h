// Campaign event journal: a JSONL stream of discrete campaign-lifecycle events —
// new coverage, bug dedup hits, liveness resets, delta-reflash savings, trace spans,
// periodic metric snapshots. Events are stamped with VIRTUAL time only (the same
// clock the boards burn), so a journal is bit-reproducible across hosts and runs.
//
// Sinks buffer with a hard bound and an explicit drop counter: when a sink cannot
// take an event (memory cap reached, file write failed) the event is dropped and
// counted — never silently lost, never an unbounded queue.

#ifndef SRC_TELEMETRY_JOURNAL_H_
#define SRC_TELEMETRY_JOURNAL_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/vclock.h"

namespace eof {
namespace telemetry {

// One journal row, as its type's field list (src/telemetry/rows.h) rendered it.
// Producers build events with RowEvent or Journal, never field by field.
struct Event {
  VirtualTime at = 0;  // virtual microseconds; the only timestamp an event carries
  std::string type;    // "new_coverage", "bug", "liveness_reset", "board_snapshot", ...
  int worker = -1;     // board index; -1 = campaign scope
  std::string fields;  // the row's fields, rendered: "catalog_id":7,...

  // One JSON object, no trailing newline:
  //   {"type":"bug","t_us":12000,"worker":0,"catalog_id":7,...}
  std::string ToJsonLine() const;
};

// Escapes `text` for embedding inside a JSON string literal (quotes, backslashes,
// control characters; crash excerpts routinely contain newlines).
std::string JsonEscape(std::string_view text);

// Where journal events go. Implementations must be thread-safe: the farm emits from
// every worker thread plus the scheduler's campaign lock.
class EventSink {
 public:
  virtual ~EventSink() = default;

  // Returns false when the event was dropped (also counted in dropped()).
  virtual bool Emit(const Event& event) = 0;
  virtual void Flush() {}
  virtual uint64_t dropped() const = 0;
};

// Keeps up to `capacity` events in memory; the overflow is dropped and counted.
// The journal of choice for tests and for in-process inspection.
class MemoryEventSink : public EventSink {
 public:
  explicit MemoryEventSink(size_t capacity = 4096) : capacity_(capacity) {}

  bool Emit(const Event& event) override;
  uint64_t dropped() const override { return dropped_.load(std::memory_order_relaxed); }

  std::vector<Event> Events() const;  // copy, so callers need no lock discipline

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<Event> events_;
  std::atomic<uint64_t> dropped_{0};
};

// Appends JSONL lines to a file, buffering up to `buffer_lines` rendered lines
// between writes so the hot path does not syscall per event. Buffered lines are
// flushed on overflow, Flush(), and destruction; a failed write drops the buffered
// lines and counts every one of them.
class FileEventSink : public EventSink {
 public:
  static Result<std::unique_ptr<FileEventSink>> Open(const std::string& path,
                                                     size_t buffer_lines = 256);
  ~FileEventSink() override;

  bool Emit(const Event& event) override;
  void Flush() override;
  uint64_t dropped() const override { return dropped_.load(std::memory_order_relaxed); }

 private:
  FileEventSink(FILE* file, size_t buffer_lines)
      : file_(file), buffer_lines_(buffer_lines) {}
  void FlushLocked();

  std::mutex mu_;
  FILE* file_;
  size_t buffer_lines_;
  std::vector<std::string> buffer_;
  std::atomic<uint64_t> dropped_{0};
};

// Size-rotated JSONL journal: writes numbered segments next to `base_path`
// (`orch.jsonl` -> `orch.000.jsonl`, `orch.001.jsonl`, ...) of at most
// `rotate_bytes` each (a single oversized line still lands in one segment).
// Closing a segment appends a `journal_rotate` manifest row (segment index,
// byte/row counts, next segment's filename); every continuation segment opens
// with a `journal_segment` header row, which is how the report loader knows to
// concatenate a segment directory back into one stream. Both marker rows carry
// the last event's virtual stamp, so a rotated journal stays bit-reproducible.
// Writes are write-through (no line buffering): rotation decisions need exact
// byte accounting, and the rotating sink's only current producer — the fleet
// orchestrator — journals unbuffered anyway.
class RotatingFileEventSink : public EventSink {
 public:
  static Result<std::unique_ptr<RotatingFileEventSink>> Open(
      const std::string& base_path, uint64_t rotate_bytes);
  ~RotatingFileEventSink() override;

  bool Emit(const Event& event) override;
  void Flush() override;
  uint64_t dropped() const override { return dropped_.load(std::memory_order_relaxed); }

  // Segment paths written so far, in order. For tests and manifest listings.
  std::vector<std::string> SegmentPaths() const;

 private:
  RotatingFileEventSink(std::string stem, std::string suffix, uint64_t rotate_bytes);

  static std::string SegmentName(const std::string& stem, const std::string& suffix,
                                 size_t index);
  bool WriteLineLocked(const std::string& line);
  bool RotateLocked();

  mutable std::mutex mu_;
  std::string stem_;    // base path minus the ".jsonl" suffix
  std::string suffix_;  // ".jsonl" (or empty when the base path has none)
  uint64_t rotate_bytes_;
  FILE* file_ = nullptr;
  size_t segment_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t segment_rows_ = 0;
  VirtualTime last_at_ = 0;
  std::vector<std::string> segments_;
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_JOURNAL_H_
