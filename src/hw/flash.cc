#include "src/hw/flash.h"
#include <cstddef>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace eof {

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

Status Flash::Write(uint64_t offset, const std::vector<uint8_t>& data) {
  if (!InBounds(offset, data.size(), storage_.size())) {
    return OutOfRangeError(StrFormat("flash write [%llu, %llu) out of bounds",
                                     static_cast<unsigned long long>(offset),
                                     static_cast<unsigned long long>(offset + data.size())));
  }
  std::copy(data.begin(), data.end(), storage_.begin() + static_cast<std::ptrdiff_t>(offset));
  ++write_count_;
  return OkStatus();
}

Result<const uint8_t*> Flash::View(uint64_t offset, uint64_t size) const {
  if (!InBounds(offset, size, storage_.size())) {
    return OutOfRangeError(StrFormat("flash read [%llu, %llu) out of bounds",
                                     static_cast<unsigned long long>(offset),
                                     static_cast<unsigned long long>(offset + size)));
  }
  return storage_.data() + offset;
}

Result<std::vector<uint8_t>> Flash::Read(uint64_t offset, uint64_t size) const {
  ASSIGN_OR_RETURN(const uint8_t* bytes, View(offset, size));
  return std::vector<uint8_t>(bytes, bytes + size);
}

Result<uint64_t> Flash::Digest(uint64_t offset, uint64_t size) const {
  ASSIGN_OR_RETURN(const uint8_t* bytes, View(offset, size));
  if (memo_write_count_ != write_count_) {
    digest_memo_.clear();
    memo_write_count_ = write_count_;
  }
  for (const DigestMemo& memo : digest_memo_) {
    if (memo.offset == offset && memo.size == size) {
      return memo.digest;
    }
  }
  uint64_t digest = ChecksumBytes(bytes, size);
  digest_memo_.push_back(DigestMemo{offset, size, digest});
  return digest;
}

void Flash::MassErase() {
  std::fill(storage_.begin(), storage_.end(), 0xff);
  ++write_count_;
}

}  // namespace eof
