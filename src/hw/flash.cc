#include "src/hw/flash.h"

#include <array>
#include <cstddef>
#include <cstring>
#include <map>
#include <mutex>

#include "src/common/hash.h"
#include "src/common/strings.h"

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

// ChecksumBytes of `size` erased bytes. It depends only on the length, so each length is
// hashed once per process; boards deploying on several threads share the table.
uint64_t ErasedDigest(uint64_t size) {
  static std::mutex mu;
  static std::map<uint64_t, uint64_t> digests;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = digests.try_emplace(size, 0);
  if (inserted) {
    ChecksumStream stream;
    for (uint64_t done = 0; done < size; done += Flash::kPageBytes) {
      stream.Update(ErasedPage(), std::min(Flash::kPageBytes, size - done));
    }
    it->second = stream.Finish();
  }
  return it->second;
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

uint8_t* Flash::MakePrivate(uint64_t page) {
  Page& entry = pages_[page];
  if (entry.own == nullptr) {
    entry.own = std::make_unique_for_overwrite<uint8_t[]>(PageSize(page));
    std::memcpy(entry.own.get(), entry.bytes, PageSize(page));
    entry.bytes = entry.own.get();
    entry.run = nullptr;
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

Status Flash::Program(uint64_t offset, std::shared_ptr<const std::vector<uint8_t>> run,
                      uint64_t digest) {
  const uint64_t size = run->size();
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("write", offset, size);
  }
  ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
    if (n == PageSize(page)) {
      pages_[page] = Page{run->data() + done, run.get(), nullptr};
    } else {
      std::memcpy(MakePrivate(page) + in_page, run->data() + done, n);
    }
    return true;
  });
  if (std::none_of(runs_.begin(), runs_.end(),
                   [&](const auto& held) { return held == run; })) {
    // Let go of runs no page maps any more before holding a new one.
    std::erase_if(runs_, [&](const auto& held) {
      return std::none_of(pages_.begin(), pages_.end(),
                          [&](const Page& page) { return page.run == held.get(); });
    });
    runs_.push_back(std::move(run));
  }
  ++write_count_;
  digest_memo_.assign(1, DigestMemo{offset, size, digest});
  memo_write_count_ = write_count_;
  return OkStatus();
}

Result<std::vector<uint8_t>> Flash::Read(uint64_t offset, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  std::vector<uint8_t> out(size);
  ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
    std::memcpy(out.data() + done, pages_[page].bytes + in_page, n);
    return true;
  });
  return out;
}

Result<bool> Flash::Equals(uint64_t offset, const uint8_t* bytes, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  bool equal = true;
  ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t done, uint64_t n) {
    const uint8_t* stored = pages_[page].bytes + in_page;
    equal = stored == bytes + done || std::memcmp(stored, bytes + done, n) == 0;
    return equal;
  });
  return equal;
}

Result<uint64_t> Flash::Digest(uint64_t offset, uint64_t size) const {
  if (!InBounds(offset, size, size_)) {
    return OutOfBounds("read", offset, size);
  }
  if (memo_write_count_ != write_count_) {
    digest_memo_.clear();
    memo_write_count_ = write_count_;
  }
  for (const DigestMemo& memo : digest_memo_) {
    if (memo.offset == offset && memo.size == size) {
      return memo.digest;
    }
  }
  bool erased = true;
  ForEachPage(offset, size, [&](uint64_t page, uint64_t, uint64_t, uint64_t) {
    erased = pages_[page].bytes == ErasedPage();
    return erased;
  });
  uint64_t digest = 0;
  if (erased) {
    digest = ErasedDigest(size);
  } else {
    ChecksumStream stream;
    ForEachPage(offset, size, [&](uint64_t page, uint64_t in_page, uint64_t, uint64_t n) {
      stream.Update(pages_[page].bytes + in_page, n);
      return true;
    });
    digest = stream.Finish();
  }
  digest_memo_.push_back(DigestMemo{offset, size, digest});
  return digest;
}

void Flash::MassErase() {
  for (Page& page : pages_) {
    page = Page{ErasedPage(), nullptr, nullptr};
  }
  runs_.clear();
  ++write_count_;
}

}  // namespace eof
