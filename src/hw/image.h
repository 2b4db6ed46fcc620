// A firmware image: partition payloads (with boot-verifiable checksums), a symbol table,
// instrumentation options, and the factory producing the executable firmware object.
//
// The image plays the role of the built ELF/bin in the paper: the host analyses its memory
// layout (partition table) for restoration, looks up symbols to place breakpoints, flashes
// its partition payloads over the debug port, and accounts its size for the §5.5.1 memory-
// overhead measurement.

#ifndef SRC_HW_IMAGE_H_
#define SRC_HW_IMAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/hw/firmware.h"
#include "src/hw/flash.h"
#include "src/hw/symbols.h"

namespace eof {

// Which modules get SanCov-style instrumentation compiled in. `module_filter` empty means
// "instrument everything"; Table 4 confines instrumentation to {"apps/http", "apps/json"}.
struct InstrumentationOptions {
  bool enabled = true;
  std::vector<std::string> module_filter;
  // SHIFT-style semihosting delivery: each instrumentation event traps to the host
  // debugger (expensive) instead of buffering in RAM.
  bool semihost = false;

  bool Covers(const std::string& module) const {
    if (!enabled) {
      return false;
    }
    if (module_filter.empty()) {
      return true;
    }
    for (const std::string& allowed : module_filter) {
      if (module.rfind(allowed, 0) == 0) {
        return true;
      }
    }
    return false;
  }
};

class FirmwareImage;
using FirmwareFactory = std::function<std::unique_ptr<Firmware>(const FirmwareImage&)>;

// Code layout of one instrumentable module. Every coverage site in the module maps to a
// synthetic basic-block address in [base, base + bb_count * kBasicBlockStride); GDBFuzz-
// style tools plant hardware breakpoints on these addresses (their static analysis step).
struct ModuleLayout {
  std::string module;
  uint64_t base = 0;
  uint64_t bb_count = 0;
};

inline constexpr uint64_t kBasicBlockStride = 16;

// A partition's pristine payload: a [magic|len|crc] header and a deterministic pseudo-binary
// body, both a function of (name, seed, body length) alone. Its bytes are drawn the first
// time anything reads them (FirmwareImage::MakePayload), once: boards on several threads
// and the cold-boot validator share one image, so the draw runs under std::call_once.
// Flash pages map a payload by identity (Flash::Program), so programming, the boot ROM
// check and the delta reflash need none of its bytes.
class Payload {
 public:
  static constexpr uint64_t kHeaderBytes = 16;  // [magic u32 | len u32 | crc u64]

  Payload(std::string name, uint64_t seed, uint64_t body_bytes)
      : name_(std::move(name)), seed_(seed), body_bytes_(body_bytes) {}

  uint64_t size() const { return kHeaderBytes + body_bytes_; }

  // The payload's bytes, drawn by the first call.
  const std::vector<uint8_t>& bytes() const;

  // Payloads drawn so far in this process (tests bound what a campaign touches).
  static uint64_t draws();

 private:
  std::string name_;
  uint64_t seed_;
  uint64_t body_bytes_;
  mutable std::once_flag drawn_;
  mutable std::vector<uint8_t> bytes_;
};

class FirmwareImage {
 public:
  FirmwareImage() = default;

  // --- build-time population (used by core/image_builder) ---

  void set_os_name(std::string name) { os_name_ = std::move(name); }
  void set_factory(FirmwareFactory factory) { factory_ = std::move(factory); }
  void set_instrumentation(InstrumentationOptions opts) { instr_ = std::move(opts); }
  void set_size_bytes(uint64_t size) { size_bytes_ = size; }
  void set_instrumented_sites(uint64_t sites) { instrumented_sites_ = sites; }

  // Declares a partition and its payload: a deterministic pseudo-binary body of
  // `body_bytes` derived from (name, seed), wrapped in a [magic|len|crc] header that the
  // boot ROM validates. Draws nothing; fails if it overflows its u32 len or the partition.
  Status AddPartition(const std::string& name, uint64_t offset, uint64_t part_size,
                      uint64_t body_bytes, uint64_t seed);

  // Declares a partition with no payload (mutable data regions like NVS): listed in the
  // table, writable by the target, and exempt from boot validation.
  Status AddRawPartition(const std::string& name, uint64_t offset, uint64_t part_size);

  SymbolTable& mutable_symbols() { return symbols_; }

  // Sets where module code regions start (above the agent's program-point symbols).
  void set_code_base(uint64_t base) { code_base_ = base; }

  // Declares an instrumentable module with `bb_count` synthetic basic blocks, carving its
  // region out of the code space. Returns the assigned layout.
  Result<ModuleLayout> AddModule(const std::string& module, uint64_t bb_count);

  // --- host-side consumption ---

  const std::string& os_name() const { return os_name_; }
  const PartitionTable& partition_table() const { return table_; }
  const SymbolTable& symbols() const { return symbols_; }
  const InstrumentationOptions& instrumentation() const { return instr_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t instrumented_sites() const { return instrumented_sites_; }

  using Payload = eof::Payload;

  // The payload for reflashing `partition`; nullptr for raw partitions and unknown names.
  const Payload* PayloadOf(const std::string& partition) const;

  // Whether `payload` is one of this image's own.
  bool Owns(const Payload& payload) const;

  std::unique_ptr<Firmware> Instantiate() const { return factory_(*this); }
  bool has_factory() const { return static_cast<bool>(factory_); }

  // Verifies that the bytes stored in `flash` for every partition parse as a valid payload
  // (magic + CRC) and are the image's own. This is the boot ROM's integrity check; a kernel
  // bug that scribbles on flash makes it fail until the host reflashes. Asks Flash::Holds,
  // which answers from the page mapping where it can; payloads verify by construction, so
  // only stored bytes that differ are copied out and parsed.
  Status VerifyFlash(const Flash& flash) const;

  const std::vector<ModuleLayout>& modules() const { return modules_; }

  // Layout of `module`, or NotFoundError.
  Result<ModuleLayout> ModuleOf(const std::string& module) const;

  // Maps a coverage-site hash within `layout` to its synthetic basic-block address.
  static uint64_t BasicBlockAddress(const ModuleLayout& layout, uint64_t site_hash) {
    return layout.base + (site_hash % (layout.bb_count == 0 ? 1 : layout.bb_count)) *
                             kBasicBlockStride;
  }

  // True when `address` lies inside any module's basic-block region.
  bool InCodeSpace(uint64_t address) const;

  // Payload wire helpers: MakePayload is the draw behind Payload::bytes().
  static std::vector<uint8_t> MakePayload(const std::string& name, uint64_t seed,
                                          uint64_t body_bytes);
  static Status VerifyPayload(const uint8_t* data, size_t size);
  static Status VerifyPayload(const std::vector<uint8_t>& bytes) {
    return VerifyPayload(bytes.data(), bytes.size());
  }

 private:
  std::string os_name_;
  PartitionTable table_;
  std::unordered_map<std::string, Payload> payloads_;
  SymbolTable symbols_;
  InstrumentationOptions instr_;
  FirmwareFactory factory_;
  uint64_t size_bytes_ = 0;
  uint64_t instrumented_sites_ = 0;
  uint64_t code_base_ = 0;
  uint64_t next_module_base_ = 0;
  std::vector<ModuleLayout> modules_;
};

}  // namespace eof

#endif  // SRC_HW_IMAGE_H_
