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

class Payload;  // src/hw/image.h

// The device's bytes, tracked in pages of kPageBytes. Each page's bytes live in one of
// three places:
//   - the one process-wide erased page (all 0xff), which every untouched page shares;
//   - a payload the flash co-owns: Program maps each page a payload covers onto it by
//     identity, and the page holds the payload's bytes where the payload reaches and
//     erased bytes elsewhere. The payload's bytes are drawn only when a read, a write or
//     a digest of the page needs them;
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

  // The reflash path: stores `payload` at `offset` as Write would, but maps the pages it
  // covers onto the payload instead of copying its bytes, and co-owns the payload while
  // any page does. A page it covers only in part is mapped too when the rest of the page
  // is erased, and copied otherwise. Same bounds check and write_count() bump as Write.
  Status Program(uint64_t offset, std::shared_ptr<const Payload> payload);

  // Reads `size` bytes at `offset`.
  Result<std::vector<uint8_t>> Read(uint64_t offset, uint64_t size) const;

  // Whether the stored bytes [offset, offset + size) equal `bytes`. Stored bytes that are
  // those very bytes compare equal without being read. Same bounds check and error as
  // Read.
  Result<bool> Equals(uint64_t offset, const uint8_t* bytes, uint64_t size) const;

  // Whether [offset, offset + payload.size()) holds `payload`'s bytes. It does, without a
  // draw, when every page there maps the payload at `offset`; it does not when every page
  // there is erased (a payload starts with a magic word, not with erased bytes). Any other
  // range is compared byte for byte. Same bounds check and error as Read.
  Result<bool> Holds(uint64_t offset, const Payload& payload) const;

  // ChecksumBytes over [offset, offset + size), hashed page by page in place.
  Result<uint64_t> Digest(uint64_t offset, uint64_t size) const;

  // Erases the whole device back to 0xff.
  void MassErase();

  // Number of programming operations since construction (wear accounting for stats).
  // Write, Program and MassErase are the only mutators of the stored bytes and all bump
  // it, so an unchanged count proves unchanged contents.
  uint64_t write_count() const { return write_count_; }

 private:
  struct Page {
    const uint8_t* bytes = nullptr;    // the erased page or `own`, unless mapped
    const Payload* payload = nullptr;  // the payload the page maps, if mapped
    uint64_t origin = 0;               // the flash offset that payload starts at
    std::unique_ptr<uint8_t[]> own;    // the page's private copy, if private
  };

  // Bytes in page `page`: kPageBytes, except for a short last page.
  uint64_t PageSize(uint64_t page) const {
    return std::min(kPageBytes, size_ - page * kPageBytes);
  }

  // Calls visit(page, offset in page, offset in range, length) for each page's share of
  // [offset, offset + size), in order, while it returns true. The range is in bounds.
  template <class Visit>
  void ForEachPage(uint64_t offset, uint64_t size, Visit visit) const;

  // Calls visit(bytes, offset in range, length) for the stored bytes of [offset,
  // offset + size) in contiguous pieces, in order, while it returns true. A mapped page
  // gives up to three pieces: erased, its payload's (drawing it), erased.
  template <class Visit>
  void ForEachPiece(uint64_t offset, uint64_t size, Visit visit) const;

  // Whether every byte of page `page` outside its share [in_page, in_page + n) is
  // erased, so that programming the share may map the page. Draws nothing.
  bool ErasedOutside(uint64_t page, uint64_t in_page, uint64_t n) const;

  // Page `page`'s private copy, made from its current bytes if it has none yet.
  uint8_t* MakePrivate(uint64_t page);

  uint64_t size_;
  std::vector<Page> pages_;
  std::vector<std::shared_ptr<const Payload>> payloads_;  // co-owned payloads
  uint64_t write_count_ = 0;
};

}  // namespace eof

#endif  // SRC_HW_FLASH_H_
