// Environment variables (group environ block).
//
// ── Bug #14 (Table 2, confirmed): NuttX / Kernel / Kernel Panic / setenv() ──
// The environ block packs name=value pairs into one allocation and setenv() grows it by
// realloc. With eight or more variables the block has been compacted in place, and adding
// a value longer than 64 bytes makes the copy length computation wrap past the block end:
// the terminating NUL lands on the adjacent group structure — kernel panic on the next
// group dereference inside setenv's epilogue. Random programs essentially never stack
// eight setenvs before the long write; the variable-count edges give coverage-guided
// search a staircase.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/nuttx/apis.h"

namespace eof {
namespace nuttx {
namespace {

EOF_COV_MODULE("nuttx/env");

int64_t SetEnv(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  std::string value = args[1].AsString();
  bool overwrite = args[2].scalar != 0;
  if (name.empty() || name.find('=') != std::string::npos) {
    EOF_COV(ctx);
    return EINVAL_;
  }
  // Existing variable?
  for (EnvVar& var : state.environ) {
    ctx.ConsumeCycles(kListOpCycles);
    if (var.name == name) {
      if (!overwrite) {
        EOF_COV(ctx);
        return OK_;
      }
      EOF_COV(ctx);
      state.environ_bytes -= var.value.size();
      state.environ_bytes += value.size();
      var.value = value;
      return OK_;
    }
  }
  uint64_t entry_bytes = name.size() + value.size() + 2;
  if (state.environ_bytes + entry_bytes > NuttxState::kEnvironCapacity) {
    EOF_COV(ctx);
    return ENOMEM_;
  }
  // Variable-count staircase.
  size_t count = state.environ.size() + 1;
  if (count == 2) {
    EOF_COV(ctx);
  }
  if (count == 4) {
    EOF_COV(ctx);
  }
  if (count == 6) {
    EOF_COV(ctx);
  }
  if (count >= 8) {
    EOF_COV(ctx);
    if (value.size() > 64) {
      EOF_COV(ctx);
      // BUG #14: compacted block + long value -> wrapped copy length.
      ctx.Panic("up_assert: Assertion failed at file:environ.c line 214: group corrupt",
                "Stack frames at BUG:\n"
                " Level 1: environ.c : setenv : 214\n"
                " Level 2: agent : execute_one");
    }
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, count);                       // environ population
  EOF_COV_BUCKET(ctx, CovSizeClass(value.size()) + 12);  // value size class
  ctx.ConsumeCycles(kCopyPerByteCycles * entry_bytes + kAllocOpCycles);
  state.environ.push_back(EnvVar{name, value});
  state.environ_bytes += entry_bytes;
  return OK_;
}

int64_t GetEnv(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  for (const EnvVar& var : state.environ) {
    ctx.ConsumeCycles(kListOpCycles);
    if (var.name == name) {
      EOF_COV(ctx);
      return static_cast<int64_t>(var.value.size());  // "pointer" stand-in
    }
  }
  EOF_COV(ctx);
  return 0;
}

int64_t UnsetEnv(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString();
  for (size_t i = 0; i < state.environ.size(); ++i) {
    ctx.ConsumeCycles(kListOpCycles);
    if (state.environ[i].name == name) {
      EOF_COV(ctx);
      state.environ_bytes -= state.environ[i].name.size() + state.environ[i].value.size() + 2;
      state.environ.erase(state.environ.begin() + static_cast<std::ptrdiff_t>(i));
      return OK_;
    }
  }
  EOF_COV(ctx);
  return OK_;  // POSIX: unsetting an absent variable succeeds
}

int64_t ClearEnv(KernelContext& ctx, NuttxState& state, const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  state.environ.clear();
  state.environ_bytes = 0;
  return OK_;
}

}  // namespace

Status RegisterEnvApis(ApiTable<NuttxState>& table) {
  {
    ApiSpec spec;
    spec.name = "setenv";
    spec.subsystem = "env";
    spec.doc = "set an environment variable";
    spec.args = {ArgSpec::String("name", {"PATH", "HOME", "TZ", "LANG", "TMP", "PS1",
                                          "TERM", "USER", "SHELL"}),
                 ArgSpec::String("value"), ArgSpec::Scalar("overwrite", 8, 0, 1)};
    spec.args[1].buf_max = 256;
    RETURN_IF_ERROR(table.Register(std::move(spec), SetEnv));
  }
  {
    ApiSpec spec;
    spec.name = "getenv";
    spec.subsystem = "env";
    spec.doc = "read an environment variable";
    spec.args = {ArgSpec::String("name", {"PATH", "HOME", "TZ", "LANG"})};
    RETURN_IF_ERROR(table.Register(std::move(spec), GetEnv));
  }
  {
    ApiSpec spec;
    spec.name = "unsetenv";
    spec.subsystem = "env";
    spec.doc = "remove an environment variable";
    spec.args = {ArgSpec::String("name", {"PATH", "HOME", "TZ", "LANG"})};
    RETURN_IF_ERROR(table.Register(std::move(spec), UnsetEnv));
  }
  {
    ApiSpec spec;
    spec.name = "clearenv";
    spec.subsystem = "env";
    spec.doc = "drop all environment variables";
    RETURN_IF_ERROR(table.Register(std::move(spec), ClearEnv));
  }
  return OkStatus();
}

}  // namespace nuttx
}  // namespace eof
