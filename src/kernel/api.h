// API registry: the machine-readable ground truth about each embedded OS's API surface.
//
// Every kernel registers its callable APIs here with full type information — argument
// kinds, value ranges, flag sets, resource production/consumption. Two consumers exist:
//   * the agent executor dispatches decoded test-case calls through the registry, and
//   * the spec miner (src/spec/spec_miner.h) emits Syzlang from it, playing the role of
//     the paper's GPT-4o pass over headers/docs (§4.5, "LLM-based Input Generation").

#ifndef SRC_KERNEL_API_H_
#define SRC_KERNEL_API_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"

namespace eof {

class KernelContext;

enum class ArgKind : uint8_t {
  kScalar,    // plain integer with an optional [min, max] range
  kFlags,     // OR-combination / one-of a declared value set
  kResource,  // handle produced by an earlier call (task id, queue handle, ...)
  kBuffer,    // byte blob (the fuzzer controls contents and length)
  kString,    // NUL-terminated text, optionally from a candidate set (device names, keys)
  kLen,       // length of a sibling buffer argument
};

const char* ArgKindName(ArgKind kind);

struct ArgSpec {
  std::string name;
  ArgKind kind = ArgKind::kScalar;

  // kScalar:
  unsigned bits = 32;
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;

  // kFlags: the declared values; `combinable` allows OR-ing several.
  std::vector<uint64_t> flag_values;
  // Additional values only the LLM-mined (extended) specs know about — header-only
  // constants hand-written baseline specs typically miss. Baseline generators ignore them.
  std::vector<uint64_t> extended_flag_values;
  bool combinable = false;

  // kResource:
  std::string resource_kind;
  bool optional_null = false;  // 0 is an accepted "no resource" value

  // kBuffer / kString:
  uint64_t buf_min = 0;
  uint64_t buf_max = 256;
  std::vector<std::string> string_set;  // kString candidates ("" = arbitrary text)

  // kLen: index of the sibling buffer argument this is the length of.
  int len_of = -1;

  // --- convenience constructors ---
  static ArgSpec Scalar(std::string name, unsigned bits, uint64_t min, uint64_t max);
  static ArgSpec Flags(std::string name, std::vector<uint64_t> values, bool combinable = false);
  static ArgSpec Resource(std::string name, std::string kind, bool optional_null = false);
  static ArgSpec Buffer(std::string name, uint64_t min_len, uint64_t max_len);
  static ArgSpec String(std::string name, std::vector<std::string> candidates = {});
  static ArgSpec Len(std::string name, int buffer_index);
};

struct ApiSpec {
  uint32_t id = 0;  // assigned by the registry at registration time
  std::string name;        // "xTaskCreate", "rt_event_send", ...
  std::string subsystem;   // coverage-module suffix: "task", "queue", "heap", ...
  std::string doc;         // one-line description (feeds the generated Syzlang comment)
  std::vector<ArgSpec> args;
  std::string produces;    // resource kind returned on success ("" = plain status code)
  bool is_pseudo = false;  // pseudo-syscall: an op sequence behind one entry point
  // Extended-tier specs come from the LLM/miner pass over headers and docs (§4.5); the
  // hand-written baseline spec sets (what Tardis-style tools ship) cover only the base
  // tier. EOF and EOF-nf use both tiers.
  bool extended_spec = false;
};

// A runtime argument value: scalar word and, for buffer/string kinds, the payload bytes.
struct ArgValue {
  uint64_t scalar = 0;
  std::vector<uint8_t> bytes;

  std::string AsString() const {
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
};

// The metadata half of an OS's API table: what the spec miner, the generator and the
// image builder read. Entries are added through ApiTable, which pairs each with its
// implementation.
class ApiRegistry {
 public:
  const ApiSpec* FindById(uint32_t id) const;
  const ApiSpec* FindByName(const std::string& name) const;

  const std::vector<ApiSpec>& all() const { return specs_; }
  size_t size() const { return specs_.size(); }

 protected:
  ApiRegistry() = default;

  // Validates `spec`, assigns its id and appends it.
  Status AddSpec(ApiSpec spec);

  // Unknown ids or arity mismatches are *rejected by the agent* with an error return (the
  // paper's agent validates before dispatch), never a crash.
  Status CheckCall(uint32_t id, size_t arg_count) const;

 private:
  std::vector<ApiSpec> specs_;
  std::unordered_map<std::string, uint32_t> by_name_;
};

// An OS's API table. Each entry point runs against the kernel state of the boot that
// dispatches it, so one table per OS serves every boot in the process read-only; the
// state reaches it through Os::CallApi.
template <typename State>
class ApiTable : public ApiRegistry {
 public:
  // Returns a kernel status / handle value (OS-specific conventions). May throw
  // KernelPanicSignal / KernelAssertSignal / KernelHangSignal.
  using Fn = std::function<int64_t(KernelContext&, State&, const std::vector<ArgValue>&)>;

  // Registers `spec` with its implementation; the spec's id is its registration index.
  Status Register(ApiSpec spec, Fn fn) {
    RETURN_IF_ERROR(AddSpec(std::move(spec)));
    fns_.push_back(std::move(fn));
    return OkStatus();
  }

  // Registers every entry of `part`, dispatched with the `member` of this table's state.
  template <typename Part>
  Status Include(const ApiTable<Part>& part, Part State::*member) {
    for (size_t i = 0; i < part.size(); ++i) {
      typename ApiTable<Part>::Fn fn = part.fns_[i];
      RETURN_IF_ERROR(Register(part.all()[i], [fn, member](KernelContext& ctx, State& state,
                                                           const std::vector<ArgValue>& args) {
        return fn(ctx, state.*member, args);
      }));
    }
    return OkStatus();
  }

  Result<int64_t> Call(KernelContext& ctx, State& state, uint32_t id,
                       const std::vector<ArgValue>& args) const {
    RETURN_IF_ERROR(CheckCall(id, args.size()));
    return fns_[id](ctx, state, args);
  }

 private:
  template <typename>
  friend class ApiTable;

  std::vector<Fn> fns_;
};

// Builds an OS's table from its per-subsystem registration functions. A registration
// error is a bug in the OS model and aborts.
template <typename State>
ApiTable<State> BuildApiTable(const char* os_name,
                              std::initializer_list<Status (*)(ApiTable<State>&)> parts) {
  ApiTable<State> table;
  for (Status (*part)(ApiTable<State>&) : parts) {
    Status status = part(table);
    EOF_CHECK(status.ok()) << os_name << " API registration failed: " << status.ToString();
  }
  return table;
}

}  // namespace eof

#endif  // SRC_KERNEL_API_H_
