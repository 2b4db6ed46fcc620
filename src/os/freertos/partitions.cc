// ESP-IDF-flavoured partition registry on top of the board's SPI flash.
//
// ── Bug #13 (Table 2): FreeRTOS / Kernel / Kernel Panic / load_partitions() ──
// load_partitions() copies `count` entries starting at `start_slot` into a fixed 8-entry
// in-RAM table. It validates start_slot but not start_slot + count, so an overlong copy
// runs off the table into the adjacent flash-cache writeback buffer: the dirty line is
// flushed over the on-flash partition table, corrupting it, and the loader then faults on
// the mangled entry. After the panic the image no longer passes boot validation — this is
// the bug class that makes a plain reboot insufficient (§4.4.2) and forces EOF's reflash
// path. Requires real SPI flash, so emulation-based tools never reach it.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/image_layout.h"
#include "src/kernel/kernel_context.h"
#include "src/os/freertos/apis.h"

namespace eof {
namespace freertos {
namespace {

EOF_COV_MODULE("freertos/partition");

constexpr uint64_t ESP_OK = 0;
constexpr int64_t ESP_ERR_NOT_SUPPORTED = -262;
constexpr int64_t ESP_ERR_NOT_FOUND = -261;
constexpr int64_t ESP_ERR_INVALID_ARG = -258;
constexpr int64_t ESP_ERR_INVALID_STATE = -259;
constexpr int64_t ESP_ERR_FLASH_OP_FAIL = -260;

constexpr size_t kMaxSlots = 8;

int64_t LoadPartitions(KernelContext& ctx, FreeRtosState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (!ctx.HasPeripheral(Peripheral::kSpiFlash)) {
    EOF_COV(ctx);
    return ESP_ERR_NOT_SUPPORTED;  // no flash controller on emulated machines
  }
  uint64_t start_slot = args[0].scalar;
  uint64_t count = args[1].scalar;
  if (start_slot >= kMaxSlots) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  if (count == 0) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  // Populate from the image's on-flash table.
  const PartitionTable& table = ctx.image().partition_table();
  state.partition_slots.clear();
  for (const Partition& part : table.partitions) {
    EOF_COV(ctx);
    ctx.ConsumeCycles(kListOpCycles * 8);
    FreeRtosState::PartitionSlot slot;
    slot.label = part.name;
    slot.flash_offset = part.offset;
    slot.size = part.size;
    slot.loaded = true;
    state.partition_slots.push_back(slot);
  }
  // BUG: the bound check uses start_slot only; a long copy from a high slot runs past the
  // table (short overruns land in padding and stay silent).
  if (start_slot >= 4 && start_slot + count > kMaxSlots + 7) {
    EOF_COV(ctx);
    // The copy loop runs out of the slot array into the flash-cache writeback buffer;
    // the dirty line lands on the on-flash partition table.
    std::vector<uint8_t> garbage(128, 0xa5);
    (void)ctx.env().flash().Write(kPtableFlashOffset, garbage);
    ctx.Panic(
        "Guru Meditation Error: Core 0 panic'ed (LoadProhibited)",
        StrFormat("Backtrace: load_partitions:0x%llx <- esp_partition_init <- app_main",
                  static_cast<unsigned long long>(kPtableFlashOffset)));
  }
  EOF_COV(ctx);
  return ESP_OK;
}

int64_t PartitionFind(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  if (state.partition_slots.empty()) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_STATE;  // load_partitions() first
  }
  std::string label = args[0].AsString();
  for (size_t i = 0; i < state.partition_slots.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (state.partition_slots[i].label == label) {
      EOF_COV(ctx);
      return static_cast<int64_t>(i) + 1;  // partition handle = slot index + 1
    }
  }
  EOF_COV(ctx);
  return ESP_ERR_NOT_FOUND;
}

FreeRtosState::PartitionSlot* SlotOf(FreeRtosState& state, int64_t handle) {
  if (handle <= 0 || static_cast<size_t>(handle) > state.partition_slots.size()) {
    return nullptr;
  }
  return &state.partition_slots[static_cast<size_t>(handle) - 1];
}

int64_t PartitionRead(KernelContext& ctx, FreeRtosState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  FreeRtosState::PartitionSlot* slot = SlotOf(state, static_cast<int64_t>(args[0].scalar));
  if (slot == nullptr) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  uint64_t offset = args[1].scalar;
  uint64_t length = args[2].scalar;
  if (!InBounds(offset, length, slot->size)) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;  // esp_partition bounds its accesses
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, CovSizeClass(length));
  ctx.ConsumeCycles(kCopyPerByteCycles * length);
  auto data = ctx.env().flash().Read(slot->flash_offset + offset, length);
  return data.ok() ? static_cast<int64_t>(ESP_OK) : ESP_ERR_FLASH_OP_FAIL;
}

int64_t PartitionWrite(KernelContext& ctx, FreeRtosState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  FreeRtosState::PartitionSlot* slot = SlotOf(state, static_cast<int64_t>(args[0].scalar));
  if (slot == nullptr) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  if (slot->label != "nvs") {
    EOF_COV(ctx);
    return ESP_ERR_NOT_SUPPORTED;  // app/bootloader partitions are write-protected
  }
  uint64_t offset = args[1].scalar;
  const std::vector<uint8_t>& data = args[2].bytes;
  if (!InBounds(offset, data.size(), slot->size)) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  EOF_COV(ctx);
  ctx.ConsumeCycles(kCopyPerByteCycles * 8 * data.size());  // flash programming is slow
  Status written = ctx.env().flash().Write(slot->flash_offset + offset, data);
  return written.ok() ? static_cast<int64_t>(ESP_OK) : ESP_ERR_FLASH_OP_FAIL;
}

int64_t PartitionErase(KernelContext& ctx, FreeRtosState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  FreeRtosState::PartitionSlot* slot = SlotOf(state, static_cast<int64_t>(args[0].scalar));
  if (slot == nullptr) {
    EOF_COV(ctx);
    return ESP_ERR_INVALID_ARG;
  }
  if (slot->label != "nvs") {
    EOF_COV(ctx);
    return ESP_ERR_NOT_SUPPORTED;
  }
  EOF_COV(ctx);
  std::vector<uint8_t> blank(slot->size, 0xff);
  ctx.ConsumeCycles(kCopyPerByteCycles * 16 * slot->size);
  Status erased = ctx.env().flash().Write(slot->flash_offset, blank);
  return erased.ok() ? static_cast<int64_t>(ESP_OK) : ESP_ERR_FLASH_OP_FAIL;
}

}  // namespace

Status RegisterPartitionApis(ApiTable<FreeRtosState>& table) {
  {
    ApiSpec spec;
    spec.name = "load_partitions";
    spec.subsystem = "partition";
    spec.doc = "load partition table entries into the kernel registry";
    spec.args = {ArgSpec::Scalar("start_slot", 32, 0, 7), ArgSpec::Scalar("count", 32, 0, 15)};
    RETURN_IF_ERROR(table.Register(std::move(spec), LoadPartitions));
  }
  {
    ApiSpec spec;
    spec.name = "esp_partition_find";
    spec.subsystem = "partition";
    spec.doc = "find a partition by label";
    spec.args = {ArgSpec::String("label", {"bootloader", "ptable", "kernel", "nvs", "ota_0"})};
    spec.produces = "partition";
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionFind));
  }
  {
    ApiSpec spec;
    spec.name = "esp_partition_read";
    spec.subsystem = "partition";
    spec.doc = "read bytes from a partition";
    spec.args = {ArgSpec::Resource("part", "partition"),
                 ArgSpec::Scalar("offset", 32, 0, 65536),
                 ArgSpec::Scalar("length", 32, 0, 4096)};
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionRead));
  }
  {
    ApiSpec spec;
    spec.name = "esp_partition_write";
    spec.subsystem = "partition";
    spec.doc = "program bytes into a writable partition";
    spec.args = {ArgSpec::Resource("part", "partition"),
                 ArgSpec::Scalar("offset", 32, 0, 65536), ArgSpec::Buffer("data", 0, 512)};
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionWrite));
  }
  {
    ApiSpec spec;
    spec.name = "esp_partition_erase";
    spec.subsystem = "partition";
    spec.doc = "erase a writable partition";
    spec.args = {ArgSpec::Resource("part", "partition")};
    RETURN_IF_ERROR(table.Register(std::move(spec), PartitionErase));
  }
  return OkStatus();
}

}  // namespace freertos
}  // namespace eof
