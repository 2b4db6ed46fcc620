// Simulated on-board flash with a partition layout.
//
// The embedded OS image is split into partitions (bootloader, kernel, app, nvs...), each at
// a fixed offset — the memory-layout analysis step in Figure 3 (①) extracts exactly this
// table from the build configuration, and StateRestoration (Algorithm 1) reflashes each
// partition at its offset. Kernel bugs can scribble over flash; boot-time validation then
// fails until the host reflashes pristine bytes.

#ifndef SRC_HW_FLASH_H_
#define SRC_HW_FLASH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace eof {

// True when [offset, offset + size) lies inside [0, limit). Written so that no huge
// `offset` or `size` can wrap the sum past the check; every memory window in src/hw
// (flash, RAM, the debug port's address map) tests its ranges this way.
inline bool InBounds(uint64_t offset, uint64_t size, uint64_t limit) {
  return offset <= limit && size <= limit - offset;
}

// One entry of the partition table ("a configuration file supplied by the developer").
struct Partition {
  std::string name;    // "bootloader", "kernel", ...
  uint64_t offset = 0;  // byte offset into flash
  uint64_t size = 0;    // reserved region size
};

struct PartitionTable {
  std::vector<Partition> partitions;

  // Returns nullptr when absent.
  const Partition* Find(const std::string& name) const;

  // Validates that partitions are in-bounds for `flash_size` and non-overlapping.
  Status Validate(uint64_t flash_size) const;
};

// The device's bytes, tracked in pages of kPageBytes. Each page's bytes live in one of
// three places:
//   - the one process-wide erased page (all 0xff), which every untouched page shares;
//   - a page of an immutable byte run the flash co-owns: Program maps a payload's whole
//     pages instead of copying them;
//   - a private copy, made the first time a write touches the page.
// Invariant: no write goes through a shared page. Write makes each page it touches private
// first. So a new Flash allocates no page, and a flash holds private copies only of pages
// written since they were last programmed or erased.
class Flash {
 public:
  static constexpr uint64_t kPageBytes = 4096;

  explicit Flash(uint64_t size_bytes);

  uint64_t size() const { return size_; }

  // Program bytes at `offset` (a buggy kernel write, or a test's).
  Status Write(uint64_t offset, const std::vector<uint8_t>& data);

  // The reflash path: stores `*run` at `offset` as Write would, but maps every page the
  // run covers whole instead of copying it, and co-owns the run while any page does.
  // `digest` is ChecksumBytes of the run, so Digest(offset, run size) returns it without
  // hashing until the next write. Same bounds check and write_count() bump as Write.
  Status Program(uint64_t offset, std::shared_ptr<const std::vector<uint8_t>> run,
                 uint64_t digest);

  // Reads `size` bytes at `offset`.
  Result<std::vector<uint8_t>> Read(uint64_t offset, uint64_t size) const;

  // Whether the stored bytes [offset, offset + size) equal `bytes`. A page mapped onto
  // those very bytes compares equal without being read. Same bounds check and error as
  // Read.
  Result<bool> Equals(uint64_t offset, const uint8_t* bytes, uint64_t size) const;

  // ChecksumBytes over [offset, offset + size), hashed page by page in place and memoized
  // on write_count(): re-hashing flash that no write has touched costs nothing. An
  // all-erased range hashes once per length per process.
  Result<uint64_t> Digest(uint64_t offset, uint64_t size) const;

  // Erases the whole device back to 0xff.
  void MassErase();

  // Number of programming operations since construction (wear accounting for stats).
  // Write, Program and MassErase are the only mutators of the stored bytes and all bump
  // it, so an unchanged count proves unchanged contents.
  uint64_t write_count() const { return write_count_; }

 private:
  struct Page {
    const uint8_t* bytes = nullptr;             // where the page's bytes are
    const std::vector<uint8_t>* run = nullptr;  // the co-owned run they are in, if shared
    std::unique_ptr<uint8_t[]> own;             // their private copy, if private
  };

  struct DigestMemo {
    uint64_t offset;
    uint64_t size;
    uint64_t digest;
  };

  // Bytes in page `page`: kPageBytes, except for a short last page.
  uint64_t PageSize(uint64_t page) const {
    return std::min(kPageBytes, size_ - page * kPageBytes);
  }

  // Calls visit(page, offset in page, offset in range, length) for each page's share of
  // [offset, offset + size), in order, while it returns true. The range is in bounds.
  template <class Visit>
  void ForEachPage(uint64_t offset, uint64_t size, Visit visit) const;

  // Page `page`'s private copy, made from its current bytes if it has none yet.
  uint8_t* MakePrivate(uint64_t page);

  uint64_t size_;
  std::vector<Page> pages_;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> runs_;  // co-owned runs
  uint64_t write_count_ = 0;
  // Digests computed at write count `memo_write_count_`; dropped when it moves.
  mutable std::vector<DigestMemo> digest_memo_;
  mutable uint64_t memo_write_count_ = 0;
};

}  // namespace eof

#endif  // SRC_HW_FLASH_H_
