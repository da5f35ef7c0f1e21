// Fault handling for the campaign engine: deterministic fault injection,
// cooperative interruption, and the tsc_run exit-code contract.
//
// Long campaigns (tens of thousands to millions of timed runs per cell) are
// batch jobs; a crashed worker, an OOM kill or a wedged shard must not lose
// the whole run.  This header provides the three primitives the
// fault-tolerant shard runner (runner/checkpoint.h) is built from:
//
//   * FaultSpec / FaultInjector - a DETERMINISTIC test seam.  A spec names
//     one shard (stage-local task index) and a fault kind; the injector
//     fires on the first `times` attempts of that shard and never anywhere
//     else, so a faulted campaign is reproducible.  `throw` raises from
//     inside the task, `corrupt` flips a byte of the shard's serialized
//     payload so the record checksum rejects it; the process-fatal kinds
//     (below) need a --dispatch worker.  Parsed from --inject-fault or the
//     TSC_INJECT_FAULT environment seam.
//   * The process interrupt flag - SIGINT/SIGTERM set it (nothing else is
//     async-signal-safe); the shard runner polls it between completions,
//     drains in-flight shards, flushes the checkpoint and throws
//     Interrupted, which tsc_run turns into kExitInterrupted.
//   * Exit codes - the documented tsc_run contract (docs/fault_tolerance.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsc::runner {

/// tsc_run process exit codes.  Distinct and documented so schedulers can
/// tell "retry me" (kExitInterrupted, the sysexits EX_TEMPFAIL value) from
/// "fix the invocation" (kExitUsage) from "the experiment itself failed".
enum ExitCode : int {
  kExitOk = 0,           ///< complete result emitted
  kExitFailure = 1,      ///< experiment failed (shard retries exhausted,
                         ///< checkpoint flushed when one was configured)
  kExitUsage = 2,        ///< bad command line / unknown experiment
  kExitPartial = 4,      ///< --allow-partial: result emitted with a
                         ///< non-empty incomplete_shards manifest
  kExitInterrupted = 75, ///< SIGINT/SIGTERM: checkpoint flushed, rerun with
                         ///< --resume to continue (EX_TEMPFAIL)
};

enum class FaultKind : std::uint8_t {
  kNone,
  kThrow,
  kCorrupt,
  // Process-fatal kinds, only meaningful under --dispatch (the CLI rejects
  // them in-process): a worker subprocess really dies or really wedges, so
  // the supervisor's crash-isolation and kill-based-watchdog paths are
  // exercised for real rather than simulated.
  kCrash,  ///< std::abort() at task start (SIGABRT, like a real bug)
  kWedge,  ///< spin forever at task start; only SIGKILL reclaims it
  kKill,   ///< raise(SIGKILL) at task start (OOM-killer shaped death)
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// True for the kinds that terminate or wedge the whole process - legal
/// only inside a --dispatch worker subprocess, where the supervisor
/// converts the death into a retriable shard failure.
[[nodiscard]] bool fault_kind_is_process_fatal(FaultKind kind);

/// One injected fault: stage-local task index `shard`, fired on the first
/// `times` attempts (so retries recover once the budget is spent).
struct FaultSpec {
  std::size_t shard = 0;
  FaultKind kind = FaultKind::kNone;
  int times = 1;
};

/// Parse "shard=K,kind=throw|corrupt|crash|wedge|kill[,times=N]".
/// Returns std::nullopt and fills `error` on malformed input.
[[nodiscard]] std::optional<FaultSpec> parse_fault_spec(
    const std::string& spec, std::string* error);

/// Render a spec back to the parse_fault_spec syntax (how the dispatch
/// supervisor forwards its --inject-fault to worker subprocesses).
[[nodiscard]] std::string to_spec_string(const FaultSpec& spec);

/// Deterministic exponential backoff for shard retries.  The delay is a
/// PURE function of (shard, attempt): base * 2^(attempt-1) capped at
/// `cap_ms`, plus a deterministic jitter (an FNV-style hash of shard and
/// attempt, modulo a quarter of the uncapped delay) that de-synchronizes
/// shards failing in lockstep.  Attempt 0 is the first try - no delay;
/// attempt k >= 1 is the k-th retry.  base_ms == 0 disables backoff.
struct BackoffSpec {
  std::uint64_t base_ms = 100;
  std::uint64_t cap_ms = 5'000;
};

[[nodiscard]] std::uint64_t backoff_delay_ms(const BackoffSpec& spec,
                                             std::size_t shard, int attempt);

/// The exception an injected `throw` raises.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the shard runner after an interrupt drained and checkpointed.
class Interrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a shard exhausts its retry budget without --allow-partial;
/// the checkpoint (when configured) has been flushed first.
class CampaignAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deterministic fault injector, shared by every stage of a session.
/// Read-only while tasks run, so pool workers may call it concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec = {}) : spec_(spec) {}

  /// Called at the start of attempt `attempt` of task `task`, before any
  /// task work runs (so a faulted attempt never leaves partial state).
  /// kThrow raises InjectedFault; the process-fatal kinds abort, SIGKILL
  /// or spin.
  void on_task_start(std::size_t task, int attempt) const;

  /// kCorrupt: flip a byte of the encoded payload of the targeted attempt.
  /// Returns true when it corrupted (the caller's checksum verification
  /// then rejects the payload and retries the shard).
  bool maybe_corrupt(std::size_t task, int attempt,
                     std::vector<std::uint8_t>& payload) const;

  /// Drop the spec (kind becomes kNone).  The dispatch supervisor disarms
  /// process-fatal kinds before a degraded in-process fallback - they were
  /// only ever legal inside a worker subprocess.
  void disarm() { spec_ = FaultSpec{}; }

 private:
  [[nodiscard]] bool targets(std::size_t task, int attempt) const {
    return spec_.kind != FaultKind::kNone && task == spec_.shard &&
           attempt < spec_.times;
  }

  FaultSpec spec_;
};

/// Install SIGINT/SIGTERM handlers that set the process interrupt flag.
/// Idempotent.  tsc_run installs them only when a checkpoint path is
/// configured - without one an interrupt should keep its default (kill)
/// semantics.
void install_interrupt_handlers();

/// True once SIGINT/SIGTERM arrived or request_interrupt() ran.
[[nodiscard]] bool interrupt_requested();

/// Programmatic interrupt: the TSC_STOP_AFTER test seam and unit tests use
/// it to "kill" a campaign at a chosen shard count.
void request_interrupt();

/// Reset the flag (test support; also run before a campaign starts so a
/// stale flag from a previous in-process run cannot abort it).
void clear_interrupt();

}  // namespace tsc::runner
