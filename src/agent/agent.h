// The cross-platform execution agent (§4.3.2): firmware that embeds a target OS and runs
// the Figure-4 loop. It pauses at program points (executor_main, read_prog, execute_one,
// _kcmp_buf_full) whenever the host armed breakpoints there, deserializes mailbox programs
// using only primitive operations, dispatches calls through the OS API registry, and
// translates kernel traps into board-level fault/hang latches at handle_exception().

#ifndef SRC_AGENT_AGENT_H_
#define SRC_AGENT_AGENT_H_

#include <memory>
#include <vector>

#include "src/agent/agent_layout.h"
#include "src/agent/wire.h"
#include "src/hw/firmware.h"
#include "src/hw/image.h"
#include "src/kernel/kernel_context.h"
#include "src/kernel/os.h"

namespace eof {

class AgentFirmware : public Firmware {
 public:
  AgentFirmware(const FirmwareImage& image, std::unique_ptr<Os> os);

  Status OnBoot(TargetEnv& env) override;
  StopInfo Resume(TargetEnv& env, uint64_t max_steps) override;

  // Test hooks.
  Os& os_for_test() { return *os_; }
  KernelContext* context_for_test() { return ctx_.get(); }

 private:
  enum class LoopState {
    kAtExecutorMain,
    kAtReadProg,
    kAtExecuteOne,
    kExecuting,
    kAtCovBufFull,
  };

  // Enters the program point at text_base + `point.text_offset`. Returns true when the
  // agent must suspend there (host breakpoint armed and not yet consumed for this visit).
  bool PauseAt(TargetEnv& env, const ProgramPoint& point);

  void WriteStatus(TargetEnv& env, AgentState state);
  void WriteError(TargetEnv& env, AgentError error);

  // Runs `body`, latching a kernel panic / assertion / hang it raises as the board's
  // fault; returns false when it did. `where` suffixes the panic and assertion
  // details ("" for a call, " in ISR" for a peripheral-event handler).
  template <typename Body>
  bool RunTrapping(TargetEnv& env, const char* where, Body&& body);

  // Executes call `call_index_`, read straight from the mailbox bytes; returns false when
  // a trap ended the program.
  bool ExecuteCurrentCall(TargetEnv& env);

  const FirmwareImage& image_;
  std::unique_ptr<Os> os_;
  std::unique_ptr<KernelContext> ctx_;

  uint64_t text_base_ = 0;
  uint64_t exception_handler_addr_ = 0;

  LoopState state_ = LoopState::kAtExecutorMain;
  bool skip_pause_ = false;  // set after a breakpoint stop so resume passes the point

  // Per-boot buffers the exec loop reuses: the mailbox bytes as read, the start offset of
  // each call in them, and the current call's resolved args.
  std::vector<uint8_t> mailbox_;
  std::vector<uint32_t> call_offsets_;
  std::vector<ArgValue> args_;
  size_t call_index_ = 0;
  std::vector<int64_t> results_;
  uint32_t progs_done_ = 0;
  uint64_t idle_spins_ = 0;
  uint32_t total_calls_ = 0;
  bool trapped_ = false;  // a fault/hang latched; Resume only reports it
  StopInfo trap_info_;
};

// Builds the standard firmware factory for `os_name`: the factory instantiates the OS and
// wraps it in an AgentFirmware.
Result<FirmwareFactory> MakeAgentFactory(const std::string& os_name);

}  // namespace eof

#endif  // SRC_AGENT_AGENT_H_
