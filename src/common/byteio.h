// Little-endian byte serialization for the agent wire format and flash images.
//
// The on-target agent deserializes programs using only primitive operations (§4.3.2), so
// the wire format here is deliberately simple: fixed-width little-endian integers and
// length-prefixed byte strings — no varints, no alignment games.

#ifndef SRC_COMMON_BYTEIO_H_
#define SRC_COMMON_BYTEIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace eof {

// Appends values to an owned byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }

  void PutBytes(const uint8_t* data, size_t size) { buf_.insert(buf_.end(), data, data + size); }

  // Length-prefixed (u32) byte string.
  void PutLengthPrefixed(const std::vector<uint8_t>& data) {
    PutU32(static_cast<uint32_t>(data.size()));
    PutBytes(data.data(), data.size());
  }
  void PutLengthPrefixed(const std::string& data) {
    PutU32(static_cast<uint32_t>(data.size()));
    PutBytes(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutLe(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (i * 8)));
    }
  }

  std::vector<uint8_t> buf_;
};

// Reads values from a non-owned byte span; every read is bounds-checked because the reader
// also runs "on target" against host-supplied (i.e. fuzzer-supplied) bytes.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& data) : data_(data.data()), size_(data.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool failed() const { return failed_; }

  uint8_t GetU8() { return static_cast<uint8_t>(GetLe(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLe(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU64() { return GetLe(8); }

  // Reads a u32 length then that many bytes. On overrun, sets the failure flag and returns
  // an empty vector.
  std::vector<uint8_t> GetLengthPrefixed() {
    uint32_t len = GetU32();
    std::vector<uint8_t> out;
    if (failed_ || len > remaining()) {
      failed_ = true;
      return out;
    }
    out.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return out;
  }

  // Copies `size` raw bytes; zero-fills and flags failure on overrun.
  void GetBytes(uint8_t* out, size_t size) {
    if (size > remaining()) {
      failed_ = true;
      memset(out, 0, size);
      return;
    }
    if (size == 0) {
      return;  // an empty reader's data_ may be null, and memcpy from null is UB
    }
    memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  // Steps over `size` bytes; flags failure on overrun.
  void Skip(size_t size) {
    if (size > remaining()) {
      failed_ = true;
      return;
    }
    pos_ += size;
  }

 private:
  uint64_t GetLe(int width) {
    if (static_cast<size_t>(width) > remaining()) {
      failed_ = true;
      return 0;
    }
    // One load: the host is little-endian like the wire (hash.h asserts it).
    uint64_t v = 0;
    std::memcpy(&v, data_ + pos_, static_cast<size_t>(width));
    pos_ += static_cast<size_t>(width);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace eof

#endif  // SRC_COMMON_BYTEIO_H_
