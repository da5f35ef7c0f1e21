// Multi-process shard dispatcher: the supervisor/worker execution mode
// behind `tsc_run --dispatch N`.
//
// Process isolation closes the in-process path's structural hole (a
// wedged shard THREAD cannot be killed portably; docs/fault_tolerance.md):
//
//   * The supervisor (`tsc_run --dispatch N`) forks N worker subprocesses
//     of the same binary and leases shards to them over pipes, one lease
//     per worker at a time.
//   * A worker runs the experiment only to build its PLAN - the stages it
//     declares on its Campaign (runner/campaign.h) - then serves leases
//     for any planned stage, streaming back each shard's exact encoded
//     payload (the checkpoint bytes, FNV-1a checksummed), until Shutdown.
//     It never merges, scores or builds JSON; the supervisor reduces once.
//   * A worker past its `--watchdog-ms` lease deadline is SIGKILLed - the
//     kill-based watchdog the in-process path cannot have - and its shard
//     re-queued.  A crashed worker (SIGSEGV / SIGABRT / OOM kill) becomes a
//     retriable shard failure, not campaign death.  Retries wait out a
//     deterministic exponential backoff (runner/fault.h, a pure function of
//     shard and attempt).  Heartbeats over the control channel track
//     liveness; a worker silent past the heartbeat budget is reclaimed too.
//     A respawned worker rebuilds the plan and is leasable at once.
//   * When worker processes repeatedly fail to spawn, the supervisor
//     degrades gracefully: it continues the stage in process, from the
//     payloads it already holds, with a warning instead of dying.
//
// Byte-identity invariant: the merged output equals a single-process run
// BIT FOR BIT, for any worker count, crash pattern or retry history.  The
// shard planner's splittable seeds make every shard a pure function of its
// index; payloads round-trip exactly; the supervisor merges in shard-index
// order.
//
// Wire protocol (little-endian, layered on ByteWriter/ByteReader):
//
//   frame    := u32 length, body[length]
//   body     := u8 MsgType, fields...   (no trailing bytes)
//   worker -> supervisor:
//     Hello      worker_id             (once, at startup)
//     Result     stage, count, task, attempt, payload, fnv1a64(payload)
//     TaskFailed stage, count, task, attempt, reason
//     Heartbeat  (empty; from a dedicated thread every heartbeat_ms)
//   supervisor -> worker:
//     Lease      stage, task, attempt
//     Shutdown   (empty; the worker exits 0)
//
// Strings and the payload are varint-length-prefixed; integers are
// varints; the checksum is a fixed 64-bit word.  Every decoded message is
// checked against the receiver's plan (decode_message): a planned stage,
// the plan's task count, a task inside it.  A Result or TaskFailed must
// also echo exactly the lease the supervisor recorded for its sender
// (settle_lease) - the supervisor charges the outcome to its own record,
// never to the wire.  Any violation is a protocol error that kills the
// worker; its lease is retried like a crash.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "runner/checkpoint.h"

namespace tsc::runner {

class DispatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint8_t {
  kHello = 1,
  kResult = 3,
  kTaskFailed = 4,
  kHeartbeat = 5,
  kLease = 6,
  kShutdown = 8,
};

/// Hard ceiling on a single frame, so a desynchronized or garbage stream
/// fails loudly instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxFrameBytes = 1ULL << 30;

/// Write one length-prefixed frame to `fd` (EINTR-safe, blocking).
/// Throws DispatchError on write failure (EPIPE: the peer died).
void send_frame(int fd, const std::vector<std::uint8_t>& body);

/// Incremental frame decoder over an arbitrary byte stream: feed() raw
/// reads, next() yields complete frame bodies in order.
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Move the next complete frame body into `body`; false if none yet.
  [[nodiscard]] bool next(std::vector<std::uint8_t>& body);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;
};

/// One shard lease: task `task` of stage `stage`, attempt `attempt`.
struct Lease {
  std::string stage;
  std::size_t task = 0;
  int attempt = 0;
  bool operator==(const Lease&) const = default;
};

/// One control-channel message.  Fields its type does not carry stay
/// default (see the grammar above).
struct Message {
  MsgType type = MsgType::kHeartbeat;
  std::uint64_t worker_id = 0;        ///< Hello
  Lease lease;                        ///< Lease, Result, TaskFailed
  std::size_t count = 0;              ///< Result, TaskFailed: stage size
  std::vector<std::uint8_t> payload;  ///< Result
  std::uint64_t checksum = 0;         ///< Result: the sender's fnv1a64
  std::string reason;                 ///< TaskFailed
};

/// The stages a process knows, by name, with their task counts.
using StagePlan = std::map<std::string, std::size_t>;

/// Encode `msg` as a frame body.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& msg);

/// Decode one frame body.  Throws DispatchError on an unknown type, a
/// truncated body or trailing bytes, and on a Lease, Result or TaskFailed
/// that names a stage outside `plan`, a task outside the stage, or (Result,
/// TaskFailed) a task count that disagrees with the plan's.
[[nodiscard]] Message decode_message(const std::vector<std::uint8_t>& body,
                                     const StagePlan& plan);

/// Match a worker's Result or TaskFailed against the lease the supervisor
/// recorded for that worker (`held`, nullopt when it holds none) and
/// return that lease.  Throws DispatchError when there is no lease or the
/// message names another stage, task or attempt: a stray or forged frame
/// must never requeue, charge or resolve a shard.
[[nodiscard]] Lease settle_lease(const std::optional<Lease>& held,
                                 const Message& msg);

/// How a process takes part in dispatch, assembled by tsc_run: not at all
/// (the default), as the supervisor of `processes` workers, or as the
/// worker on pipe fds `read_fd`/`write_fd`.
struct DispatchOptions {
  int processes = 0;              ///< worker subprocess count (--dispatch N)
  std::uint64_t heartbeat_ms = 250;  ///< worker heartbeat cadence; 0 = off
  /// Lease deadline (--watchdog-ms): a worker still holding a lease after
  /// this many ms is SIGKILLed and its shard re-queued.  0 = off.
  std::uint64_t watchdog_ms = 0;
  std::string exe;                ///< worker executable (self, or the
                                  ///< TSC_DISPATCH_EXE test override)
  std::vector<std::string> worker_args;  ///< common worker argv tail
  /// Worker respawn budget across the whole campaign; <0 = the default
  /// 2*processes+6.  Once spent, lost workers stay lost; at zero live
  /// workers the supervisor degrades to the in-process path.
  int max_respawns = -1;
  int read_fd = -1;   ///< worker: --dispatch-worker R,W
  int write_fd = -1;
  int worker_id = 0;  ///< worker: --worker-id, for Hello and logs
  [[nodiscard]] bool worker() const { return read_fd >= 0; }
};

/// The supervisor: an FtSession whose run_stage leases shards to worker
/// subprocesses instead of pool threads.  Construction is cheap; workers
/// are spawned on the first run_stage call (and respawned on death while
/// the budget lasts).  The destructor shuts workers down (Shutdown frame,
/// then SIGKILL for stragglers) and reaps them.
class DispatchSupervisorSession : public FtSession {
 public:
  DispatchSupervisorSession(FtOptions options, std::string experiment,
                            std::string fingerprint, DispatchOptions dispatch);
  ~DispatchSupervisorSession() override;

  [[nodiscard]] StagePayloads run_stage(
      const std::string& stage, ThreadPool& pool, std::size_t count,
      const std::function<std::vector<std::uint8_t>(std::size_t)>&
          run_encoded) override;

  /// True once repeated spawn failures forced the in-process fallback.
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  struct Worker;

  void ensure_workers();
  [[nodiscard]] bool spawn_worker();
  /// SIGKILL `w`, then take the lose_worker path.
  void kill_worker(Worker& w, const std::string& why);
  /// A worker is gone (EOF, reaped, killed, write failure): reap it,
  /// requeue its lease as a failed attempt, respawn while the budget lasts,
  /// and degrade when workers cannot be kept alive.
  void lose_worker(Worker& w, const std::string& why);
  /// Drain one read's worth of frames from `w`; protocol errors kill it.
  void read_worker(Worker& w);
  void shutdown_workers();
  void enter_degraded(const std::string& why);
  void handle_frame(Worker& w, const std::vector<std::uint8_t>& body);
  /// Retry bookkeeping for one failed shard attempt: requeue after the
  /// deterministic backoff, record incomplete (--allow-partial), or set the
  /// stage's abort error and start draining.
  void task_attempt_failed(std::size_t task, int attempt,
                           const std::string& why);
  [[nodiscard]] std::size_t alive_count() const;

  // Per-stage state, owned by the active run_stage call and routed to
  // handle_frame through these members (the event loop is single-threaded).
  struct StageState;
  /// Stop leasing; leases still out get until the drain deadline.
  void start_draining(StageState& st) const;
  StageState* stage_ = nullptr;

  DispatchOptions dispatch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int respawns_left_ = 0;
  int consecutive_spawn_failures_ = 0;
  int next_worker_id_ = 0;
  bool degraded_ = false;
  bool spawned_once_ = false;
};

/// The worker side: a lease server over the stages its Campaign declared.
/// Sends Hello on construction and runs a heartbeat thread for its life.
class DispatchWorker {
 public:
  /// `read_fd`/`write_fd` are the pipe ends passed via --dispatch-worker;
  /// `fault` is the supervisor's forwarded --inject-fault.
  DispatchWorker(int read_fd, int write_fd, int worker_id,
                 std::uint64_t heartbeat_ms, FaultSpec fault);
  ~DispatchWorker();

  /// Add stage `name` to the plan: `count` tasks, task i's payload being
  /// run_encoded(i).
  void declare(const std::string& name, std::size_t count,
               std::function<std::vector<std::uint8_t>(std::size_t)>
                   run_encoded);

  /// Serve leases for the planned stages until Shutdown or the supervisor
  /// closes the channel.  A task that throws is reported as TaskFailed.
  /// Throws DispatchError on a malformed or unplanned frame.
  void serve();

 private:
  void send_locked(const std::vector<std::uint8_t>& body);
  /// Block until one complete frame arrives; false on EOF.
  [[nodiscard]] bool read_frame(std::vector<std::uint8_t>& body);

  int read_fd_;
  int write_fd_;
  FaultInjector injector_;
  StagePlan plan_;
  std::map<std::string,
           std::function<std::vector<std::uint8_t>(std::size_t)>>
      stages_;
  FrameParser parser_;
  std::mutex write_mutex_;  ///< serializes heartbeats against results
  std::thread heartbeat_;
  std::mutex hb_mutex_;
  std::condition_variable hb_cv_;
  bool stopping_ = false;
};

}  // namespace tsc::runner
