#include "src/hw/flash.h"

#include <array>
#include <cstddef>
#include <cstring>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/hw/image.h"

namespace eof {
namespace {

// The bytes of every erased page: one page of 0xff, shared by all flashes.
const uint8_t* ErasedPage() {
  static constexpr std::array<uint8_t, Flash::kPageBytes> kErased = [] {
    std::array<uint8_t, Flash::kPageBytes> page{};
    page.fill(0xff);
    return page;
  }();
  return kErased.data();
}

Status OutOfBounds(const char* what, uint64_t offset, uint64_t size) {
  return OutOfRangeError(StrFormat("flash %s [%llu, %llu) out of bounds", what,
                                   static_cast<unsigned long long>(offset),
                                   static_cast<unsigned long long>(offset + size)));
}

}  // namespace

const Partition* PartitionTable::Find(const std::string& name) const {
  for (const Partition& part : partitions) {
    if (part.name == name) {
      return &part;
    }
  }
  return nullptr;
}

Status PartitionTable::Validate(uint64_t flash_size) const {
  for (size_t i = 0; i < partitions.size(); ++i) {
    const Partition& part = partitions[i];
    if (part.size == 0) {
      return InvalidArgumentError(StrFormat("partition '%s' has zero size", part.name.c_str()));
    }
    if (!InBounds(part.offset, part.size, flash_size)) {
      return OutOfRangeError(StrFormat("partition '%s' exceeds flash size", part.name.c_str()));
    }
    for (size_t j = i + 1; j < partitions.size(); ++j) {
      const Partition& other = partitions[j];
      // Compares distances rather than end offsets, so no sum can wrap.
      bool overlap = part.offset <= other.offset ? other.offset - part.offset < part.size
                                                 : part.offset - other.offset < other.size;
      if (overlap) {
        return InvalidArgumentError(StrFormat("partitions '%s' and '%s' overlap",
                                              part.name.c_str(), other.name.c_str()));
      }
    }
  }
  return OkStatus();
}

Flash::Flash(uint64_t size_bytes) : size_(size_bytes) {
  pages_.resize((size_bytes + kPageBytes - 1) / kPageBytes);
  for (Page& page : pages_) {
    page.bytes = ErasedPage();
  }
}

template <class Visit>
void Flash::ForEachPage(uint64_t offset, uint64_t size, Visit visit) const {
  for (uint64_t done = 0; done < size;) {
    const uint64_t page = (offset + done) / kPageBytes;
    const uint64_t in_page = (offset + done) % kPageBytes;
    const uint64_t n = std::min(PageSize(page) - in_page, size - done);
    if (!visit(page, in_page, done, n)) {
      return;
    }
    done += n;
  }
}

template <class Visit>
void Flash::ForEachPiece(uint64_t offset, uint64_t size, Visit visit) const {
  ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
    const Page& entry = pages_[page];
    if (entry.payload == nullptr) {
      return visit(entry.bytes + in_page, done, n);
    }
    // [lo, hi) is the part of the share [start, end) the payload reaches.
    const uint64_t start = offset + done;
    const uint64_t end = start + n;
    const uint64_t lo = std::clamp(entry.origin, start, end);
    const uint64_t hi = std::clamp(entry.origin + entry.payload->size(), lo, end);
    return (lo == start || visit(ErasedPage(), done, lo - start)) &&
           (hi == lo ||
            visit(entry.payload->bytes().data() + (lo - entry.origin), lo - offset, hi - lo)) &&
           (end == hi || visit(ErasedPage(), hi - offset, end - hi));
  });
}

bool Flash::ErasedOutside(uint64_t page, uint64_t in_page, uint64_t n) const {
  const Page& entry = pages_[page];
  if (n == PageSize(page)) {
    return true;
  }
  if (entry.payload == nullptr) {
    return entry.bytes == ErasedPage();
  }
  // A mapped page is erased wherever its payload does not reach.
  const uint64_t start = page * kPageBytes;
  return std::max(entry.origin, start) >= start + in_page &&
         std::min(entry.origin + entry.payload->size(), start + PageSize(page)) <=
             start + in_page + n;
}

uint8_t* Flash::MakePrivate(uint64_t page) {
  Page& entry = pages_[page];
  if (entry.own == nullptr) {
    auto own = std::make_unique_for_overwrite<uint8_t[]>(PageSize(page));
    ForEachPiece(page * kPageBytes, PageSize(page),
                 [&](const uint8_t* bytes, uint64_t done, uint64_t n) {
                   std::memcpy(own.get() + done, bytes, n);
                   return true;
                 });
    entry.bytes = own.get();
    entry.payload = nullptr;
    entry.own = std::move(own);
  }
  return entry.own.get();
}

Status Flash::Write(uint64_t offset, const std::vector<uint8_t>& data) {
  if (!InBounds(offset, data.size(), size_)) {
    return OutOfBounds("write", offset, data.size());
  }
  ForEachPage(offset, data.size(), [&](uint64_t page, uint64_t in_page, uint64_t done,
                                       uint64_t n) {
    std::memcpy(MakePrivate(page) + in_page, data.data() + done, n);
    return true;
  });
  ++write_count_;
  return OkStatus();
}

Status Flash::Program(uint64_t offset, std::shared_ptr<const Payload> payload) {
  const uint64_t size = payload->size();
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("write", offset, size);
  }
  ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
    if (ErasedOutside(page, in_page, n)) {
      pages_[page] = Page{nullptr, payload.get(), offset, nullptr};
    } else {
      std::memcpy(MakePrivate(page) + in_page, payload->bytes().data() + done, n);
    }
    return true;
  });
  if (std::none_of(payloads_.begin(), payloads_.end(),
                   [&](const auto& held) { return held == payload; })) {
    // Let go of payloads no page maps any more before holding a new one.
    std::erase_if(payloads_, [&](const auto& held) {
      return std::none_of(pages_.begin(), pages_.end(),
                          [&](const Page& page) { return page.payload == held.get(); });
    });
    payloads_.push_back(std::move(payload));
  }
  ++write_count_;
  return OkStatus();
}

Result<std::vector<uint8_t>> Flash::Read(uint64_t offset, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  std::vector<uint8_t> out(size);
  ForEachPiece(offset, size, [&](const uint8_t* bytes, uint64_t done, uint64_t n) {
    std::memcpy(out.data() + done, bytes, n);
    return true;
  });
  return out;
}

Result<bool> Flash::Equals(uint64_t offset, const uint8_t* bytes, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  bool equal = true;
  ForEachPiece(offset, size, [&](const uint8_t* stored, uint64_t done, uint64_t n) {
    equal = stored == bytes + done || std::memcmp(stored, bytes + done, n) == 0;
    return equal;
  });
  return equal;
}

Result<bool> Flash::Holds(uint64_t offset, const Payload& payload) const {
  const uint64_t size = payload.size();
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  bool mapped = true;
  bool erased = true;
  ForEachPage(offset, size, [&](uint64_t page, uint64_t, uint64_t, uint64_t) {
    const Page& entry = pages_[page];
    mapped = mapped && entry.payload == &payload && entry.origin == offset;
    erased = erased && entry.bytes == ErasedPage();
    return mapped || erased;
  });
  if (mapped || erased) {
    return mapped;
  }
  return Equals(offset, payload.bytes().data(), size);
}

Result<uint64_t> Flash::Digest(uint64_t offset, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  ChecksumStream stream;
  ForEachPiece(offset, size, [&](const uint8_t* bytes, uint64_t, uint64_t n) {
    stream.Update(bytes, n);
    return true;
  });
  return stream.Finish();
}

void Flash::MassErase() {
  for (Page& page : pages_) {
    page = Page{ErasedPage(), nullptr, 0, nullptr};
  }
  payloads_.clear();
  ++write_count_;
}

}  // namespace eof
