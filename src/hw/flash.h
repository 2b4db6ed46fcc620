// Simulated on-board flash with a partition layout.
//
// The embedded OS image is split into partitions (bootloader, kernel, app, nvs...), each at
// a fixed offset — the memory-layout analysis step in Figure 3 (①) extracts exactly this
// table from the build configuration, and StateRestoration (Algorithm 1) reflashes each
// partition at its offset. Kernel bugs can scribble over flash; boot-time validation then
// fails until the host reflashes pristine bytes.

#ifndef SRC_HW_FLASH_H_
#define SRC_HW_FLASH_H_

#include <cstdint>
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

class Flash {
 public:
  explicit Flash(uint64_t size_bytes) : storage_(size_bytes, 0xff) {}

  uint64_t size() const { return storage_.size(); }

  // Program bytes at `offset` (debug-port reflash path, or a buggy kernel write).
  Status Write(uint64_t offset, const std::vector<uint8_t>& data);

  // Reads `size` bytes at `offset`.
  Result<std::vector<uint8_t>> Read(uint64_t offset, uint64_t size) const;

  // The stored bytes [offset, offset + size) in place, valid until the next Write or
  // MassErase. Same bounds check and error as Read.
  Result<const uint8_t*> View(uint64_t offset, uint64_t size) const;

  // ChecksumBytes over [offset, offset + size), hashed in place and memoized on
  // write_count(): re-hashing flash that no write has touched costs nothing.
  Result<uint64_t> Digest(uint64_t offset, uint64_t size) const;

  // Erases the whole device back to 0xff.
  void MassErase();

  // Number of programming operations since construction (wear accounting for stats).
  // Write and MassErase are the only mutators of the stored bytes and both bump it,
  // so an unchanged count proves unchanged contents.
  uint64_t write_count() const { return write_count_; }

 private:
  struct DigestMemo {
    uint64_t offset;
    uint64_t size;
    uint64_t digest;
  };

  std::vector<uint8_t> storage_;
  uint64_t write_count_ = 0;
  // Digests computed at write count `memo_write_count_`; dropped when it moves.
  mutable std::vector<DigestMemo> digest_memo_;
  mutable uint64_t memo_write_count_ = 0;
};

}  // namespace eof

#endif  // SRC_HW_FLASH_H_
