#include "runner/dispatcher.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

namespace tsc::runner {
namespace {

using Clock = std::chrono::steady_clock;

/// The body of a message that carries no fields (Heartbeat, Shutdown).
std::vector<std::uint8_t> make_msg(MsgType type) {
  return {static_cast<std::uint8_t>(type)};
}

std::string describe(const Lease& lease) {
  return lease.stage + "/" + std::to_string(lease.task) + " attempt " +
         std::to_string(lease.attempt);
}

/// Wait up to `budget` for child `pid` to exit; true once it is reaped.
bool reap(pid_t pid, Clock::duration budget) {
  const Clock::time_point deadline = Clock::now() + budget;
  pid_t r = 0;
  while ((r = ::waitpid(pid, nullptr, WNOHANG)) == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return r != 0;
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

}  // namespace

// --- framing -----------------------------------------------------------------

void send_frame(int fd, const std::vector<std::uint8_t>& body) {
  if (body.size() > kMaxFrameBytes) {
    throw DispatchError("refusing to send oversized control frame (" +
                        std::to_string(body.size()) + " bytes)");
  }
  const auto write_all = [fd](const std::uint8_t* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::write(fd, data + done, len - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw DispatchError(std::string("control-channel write failed: ") +
                            std::strerror(errno));
      }
      done += static_cast<std::size_t>(n);
    }
  };
  const auto len = static_cast<std::uint32_t>(body.size());
  std::uint8_t head[4];
  for (int i = 0; i < 4; ++i) {
    head[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  write_all(head, sizeof(head));
  write_all(body.data(), body.size());
}

void FrameParser::feed(const std::uint8_t* data, std::size_t n) {
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (1U << 20)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(
                                                consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameParser::next(std::vector<std::uint8_t>& body) {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[consumed_ + static_cast<std::size_t>(
                                                           i)])
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    throw DispatchError("oversized control frame (" + std::to_string(len) +
                        " bytes) - desynchronized stream");
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  const auto begin =
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4);
  body.assign(begin, begin + static_cast<std::ptrdiff_t>(len));
  consumed_ += 4 + static_cast<std::size_t>(len);
  return true;
}

// --- messages ----------------------------------------------------------------

std::vector<std::uint8_t> encode_message(const Message& msg) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(msg.type));
  switch (msg.type) {
    case MsgType::kHello:
      w.put_varint(msg.worker_id);
      break;
    case MsgType::kLease:
    case MsgType::kResult:
    case MsgType::kTaskFailed:
      w.put_string(msg.lease.stage);
      if (msg.type != MsgType::kLease) w.put_varint(msg.count);
      w.put_varint(msg.lease.task);
      w.put_varint(static_cast<std::uint64_t>(msg.lease.attempt));
      if (msg.type == MsgType::kResult) {
        w.put_varint(msg.payload.size());
        w.put_bytes(msg.payload.data(), msg.payload.size());
        w.put_fixed64(msg.checksum);
      } else if (msg.type == MsgType::kTaskFailed) {
        w.put_string(msg.reason);
      }
      break;
    case MsgType::kHeartbeat:
    case MsgType::kShutdown:
      break;
  }
  return std::move(w).take();
}

Message decode_message(const std::vector<std::uint8_t>& body,
                       const StagePlan& plan) {
  Message msg;
  try {
    ByteReader r(body);
    const std::uint8_t type = r.u8();
    msg.type = static_cast<MsgType>(type);
    switch (msg.type) {
      case MsgType::kHello:
        msg.worker_id = r.varint();
        break;
      case MsgType::kHeartbeat:
      case MsgType::kShutdown:
        break;
      case MsgType::kLease:
      case MsgType::kResult:
      case MsgType::kTaskFailed: {
        const bool answer = msg.type != MsgType::kLease;
        msg.lease.stage = r.string();
        if (answer) msg.count = static_cast<std::size_t>(r.varint());
        msg.lease.task = static_cast<std::size_t>(r.varint());
        const std::uint64_t attempt = r.varint();
        if (attempt > INT_MAX) throw DispatchError("attempt out of range");
        msg.lease.attempt = static_cast<int>(attempt);
        if (msg.type == MsgType::kResult) {
          const auto size = static_cast<std::size_t>(r.varint());
          const std::uint8_t* data = r.bytes(size);
          msg.payload.assign(data, data + size);
          msg.checksum = r.fixed64();
        } else if (answer) {
          msg.reason = r.string();
        }
        const auto planned = plan.find(msg.lease.stage);
        if (planned == plan.end()) {
          throw DispatchError("message for unplanned stage '" +
                              msg.lease.stage + "'");
        }
        if (answer && msg.count != planned->second) {
          throw DispatchError("task count " + std::to_string(msg.count) +
                              " disagrees with the plan's " +
                              std::to_string(planned->second));
        }
        if (msg.lease.task >= planned->second) {
          throw DispatchError("task " + describe(msg.lease) +
                              " is outside the stage");
        }
        break;
      }
      default:
        throw DispatchError("unknown message type " + std::to_string(type));
    }
    if (r.remaining() != 0) {
      throw DispatchError("trailing bytes after the message");
    }
  } catch (const CheckpointError& e) {
    throw DispatchError(std::string("malformed message: ") + e.what());
  }
  return msg;
}

Lease settle_lease(const std::optional<Lease>& held, const Message& msg) {
  if (!held) {
    throw DispatchError("answer for " + describe(msg.lease) +
                        " from a worker holding no lease");
  }
  if (msg.lease != *held) {
    throw DispatchError("answer for " + describe(msg.lease) +
                        " from the holder of " + describe(*held));
  }
  return *held;
}

// --- supervisor --------------------------------------------------------------

struct DispatchSupervisorSession::Worker {
  pid_t pid = -1;
  int rfd = -1;  ///< supervisor reads the worker's output here
  int wfd = -1;  ///< supervisor writes leases here
  int id = -1;
  FrameParser parser;
  bool alive = true;
  bool hello = false;        ///< handshake received (spawn succeeded)
  std::optional<Lease> lease;  ///< the shard it holds, if any
  Clock::time_point lease_deadline = Clock::time_point::max();
  Clock::time_point last_seen = Clock::now();

  void close_pipes() {
    for (int* fd : {&rfd, &wfd}) {
      if (*fd >= 0) (void)::close(*fd);
      *fd = -1;
    }
  }
};

struct DispatchSupervisorSession::StageState {
  std::string name;
  std::size_t count = 0;
  StagePlan plan;  ///< {name: count}: what workers may answer for
  StagePayloads* payloads = nullptr;
  struct Pending {
    std::size_t task = 0;
    int attempt = 0;
    Clock::time_point eligible;  ///< backoff: not leased before this
  };
  std::vector<Pending> pending;
  std::size_t unresolved = 0;  ///< tasks neither completed nor given up
  bool draining = false;       ///< interrupt or abort: no new leases
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::exception_ptr abort_error;
};

DispatchSupervisorSession::DispatchSupervisorSession(FtOptions options,
                                                     std::string experiment,
                                                     std::string fingerprint,
                                                     DispatchOptions dispatch)
    : FtSession(std::move(options), std::move(experiment),
                std::move(fingerprint)),
      dispatch_(std::move(dispatch)) {
  // A worker dying mid-write must surface as EPIPE, not kill the campaign.
  (void)std::signal(SIGPIPE, SIG_IGN);
}

DispatchSupervisorSession::~DispatchSupervisorSession() {
  try {
    shutdown_workers();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructors must not throw
  }
}

std::size_t DispatchSupervisorSession::alive_count() const {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    if (w->alive) ++n;
  }
  return n;
}

bool DispatchSupervisorSession::spawn_worker() {
  int to_worker[2] = {-1, -1};    // supervisor -> worker
  int from_worker[2] = {-1, -1};  // worker -> supervisor
  const auto fail = [&](const char* what) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr, "[dispatch] %s for worker failed: %s\n", what,
                 std::strerror(errno));
    for (const int fd : {to_worker[0], to_worker[1], from_worker[0],
                         from_worker[1]}) {
      if (fd >= 0) (void)::close(fd);
    }
    return false;
  };
  if (::pipe2(to_worker, O_CLOEXEC) != 0 ||
      ::pipe2(from_worker, O_CLOEXEC) != 0) {
    return fail("pipe");
  }

  const int id = next_worker_id_++;
  // argv assembled BEFORE fork: between fork and exec only
  // async-signal-safe calls are legal (the supervisor is multithreaded).
  std::vector<std::string> argv_store;
  argv_store.push_back(dispatch_.exe);
  for (const std::string& arg : dispatch_.worker_args) {
    argv_store.push_back(arg);
  }
  argv_store.emplace_back("--worker-id");
  argv_store.push_back(std::to_string(id));
  argv_store.emplace_back("--dispatch-worker");
  argv_store.push_back(std::to_string(to_worker[0]) + "," +
                       std::to_string(from_worker[1]));
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& arg : argv_store) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork");
  if (pid == 0) {
    // Child: hand the two pipe ends across exec (everything else is
    // O_CLOEXEC), then become the worker.  exec failure -> _exit(127),
    // which the supervisor counts as a spawn failure.
    (void)::fcntl(to_worker[0], F_SETFD, 0);
    (void)::fcntl(from_worker[1], F_SETFD, 0);
    (void)::execv(argv_store[0].c_str(), argv.data());
    ::_exit(127);
  }
  (void)::close(to_worker[0]);
  (void)::close(from_worker[1]);

  auto w = std::make_unique<Worker>();
  w->pid = pid;
  w->rfd = from_worker[0];
  w->wfd = to_worker[1];
  w->id = id;
  w->last_seen = Clock::now();
  workers_.push_back(std::move(w));
  return true;
}

void DispatchSupervisorSession::ensure_workers() {
  if (spawned_once_ || degraded_) return;
  spawned_once_ = true;
  respawns_left_ = dispatch_.max_respawns >= 0 ? dispatch_.max_respawns
                                               : 2 * dispatch_.processes + 6;
  for (int i = 0; i < dispatch_.processes && !degraded_; ++i) {
    if (!spawn_worker() && consecutive_spawn_failures_ >= 3) {
      enter_degraded("worker spawn failed 3 times in a row");
      return;
    }
  }
  if (!degraded_ && alive_count() == 0) {
    enter_degraded("no worker subprocess could be spawned");
  }
}

void DispatchSupervisorSession::enter_degraded(const std::string& why) {
  if (degraded_) return;
  degraded_ = true;
  std::fprintf(stderr,
               "[dispatch] DEGRADED: %s - falling back to the in-process "
               "fault-tolerant path\n",
               why.c_str());
  shutdown_workers();
  if (fault_kind_is_process_fatal(options_.fault.kind)) {
    std::fprintf(stderr,
                 "[dispatch] disarming process-fatal --inject-fault kind=%s "
                 "for the in-process fallback\n",
                 to_string(options_.fault.kind));
    injector_.disarm();
  }
}

void DispatchSupervisorSession::task_attempt_failed(std::size_t task,
                                                    int attempt,
                                                    const std::string& why) {
  if (stage_ == nullptr) return;
  StageState& st = *stage_;
  if (charge_failure(st.name, task, attempt, why, st.abort_error)) {
    const std::uint64_t delay =
        backoff_delay_ms(options_.backoff, task, attempt + 1);
    std::fprintf(stderr,
                 "[dispatch] %s/%zu attempt %d failed (%s); retrying in "
                 "%llu ms\n",
                 st.name.c_str(), task, attempt, why.c_str(),
                 static_cast<unsigned long long>(delay));
    st.pending.push_back(
        {task, attempt + 1,
         Clock::now() + std::chrono::milliseconds(delay)});
  } else if (st.abort_error) {
    start_draining(st);
  } else {
    --st.unresolved;  // given up on, under --allow-partial
  }
}

void DispatchSupervisorSession::start_draining(StageState& st) const {
  if (st.draining) return;
  st.draining = true;
  st.drain_deadline =
      Clock::now() + std::chrono::milliseconds(
                         dispatch_.watchdog_ms > 0 ? 2 * dispatch_.watchdog_ms
                                                  : 10'000);
}

void DispatchSupervisorSession::kill_worker(Worker& w, const std::string& why) {
  if (!w.alive) return;
  if (w.pid > 0) (void)::kill(w.pid, SIGKILL);
  lose_worker(w, why);
}

void DispatchSupervisorSession::lose_worker(Worker& w,
                                            const std::string& why) {
  if (!w.alive) return;
  w.alive = false;
  w.close_pipes();
  // Bounded reap: pipe EOF can precede process exit by a moment.
  if (w.pid > 0) (void)reap(w.pid, std::chrono::seconds(2));
  w.pid = -1;
  if (!w.hello) {
    ++consecutive_spawn_failures_;
    std::fprintf(stderr,
                 "[dispatch] worker %d died before handshake (%s) - spawn "
                 "failure %d in a row\n",
                 w.id, why.c_str(), consecutive_spawn_failures_);
  } else {
    std::fprintf(stderr, "[dispatch] worker %d lost: %s\n", w.id, why.c_str());
  }
  if (w.lease) {
    const Lease lease = *w.lease;
    w.lease.reset();
    task_attempt_failed(lease.task, lease.attempt,
                        "worker " + std::to_string(w.id) + " " + why);
  }
  if (degraded_) return;
  if (consecutive_spawn_failures_ < 3 && respawns_left_ > 0) {
    --respawns_left_;
    (void)spawn_worker();
  }
  if (consecutive_spawn_failures_ >= 3) {
    enter_degraded("worker spawn failed 3 times in a row");
  } else if (alive_count() == 0) {
    enter_degraded("no live workers remain and the respawn budget is spent");
  }
}

void DispatchSupervisorSession::handle_frame(
    Worker& w, const std::vector<std::uint8_t>& body) {
  Message msg = decode_message(body, stage_ ? stage_->plan : StagePlan{});
  w.last_seen = Clock::now();
  switch (msg.type) {
    case MsgType::kHello:
      w.hello = true;
      consecutive_spawn_failures_ = 0;
      return;
    case MsgType::kHeartbeat:
      return;
    case MsgType::kResult:
    case MsgType::kTaskFailed: {
      const Lease lease = settle_lease(w.lease, msg);
      w.lease.reset();
      w.lease_deadline = Clock::time_point::max();
      if (msg.type == MsgType::kTaskFailed) {
        task_attempt_failed(lease.task, lease.attempt, msg.reason);
      } else if (fnv1a64(msg.payload.data(), msg.payload.size()) !=
                 msg.checksum) {
        task_attempt_failed(lease.task, lease.attempt,
                            "payload checksum mismatch");
      } else {
        note_completed(stage_->name, stage_->count, lease.task, msg.payload);
        (*stage_->payloads)[lease.task] = std::move(msg.payload);
        --stage_->unresolved;
      }
      return;
    }
    case MsgType::kLease:
    case MsgType::kShutdown:
      break;
  }
  throw DispatchError("unexpected message type from worker");
}

void DispatchSupervisorSession::read_worker(Worker& w) {
  std::uint8_t buf[16384];
  const ssize_t n = ::read(w.rfd, buf, sizeof(buf));
  if (n == 0) {
    lose_worker(w, "closed its control channel");
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    lose_worker(w,
                std::string("control-channel read failed: ") +
                    std::strerror(errno));
    return;
  }
  w.parser.feed(buf, static_cast<std::size_t>(n));
  try {
    std::vector<std::uint8_t> body;
    while (w.alive && w.parser.next(body)) {
      handle_frame(w, body);
    }
  } catch (const std::exception& e) {
    kill_worker(w, std::string("protocol error: ") + e.what());
  }
}

StagePayloads DispatchSupervisorSession::run_stage(
    const std::string& stage, ThreadPool& pool, std::size_t count,
    const std::function<std::vector<std::uint8_t>(std::size_t)>&
        run_encoded) {
  if (degraded_) return FtSession::run_stage(stage, pool, count, run_encoded);
  ensure_workers();
  if (degraded_) return FtSession::run_stage(stage, pool, count, run_encoded);

  StagePayloads payloads = resumed(stage, count);
  StageState st;
  st.name = stage;
  st.count = count;
  st.plan = {{stage, count}};
  st.payloads = &payloads;
  for (std::size_t i = 0; i < count; ++i) {
    if (!payloads[i]) {
      st.pending.push_back({i, 0, Clock::time_point::min()});
      ++st.unresolved;
    }
  }
  stage_ = &st;

  while (true) {
    if (degraded_) {
      // Continue in process from the payloads already collected; shards
      // given up on under --allow-partial get a fresh in-process try.
      stage_ = nullptr;
      std::erase_if(incomplete_, [&](const IncompleteShard& shard) {
        return shard.stage == stage;
      });
      return run_in_process(stage, pool, std::move(payloads), run_encoded);
    }
    if (interrupt_requested()) start_draining(st);
    bool any_lease = false;
    for (const auto& wp : workers_) {
      if (wp->alive && wp->lease) any_lease = true;
    }
    if (!st.draining && st.unresolved == 0) break;
    if (st.draining && !any_lease) break;

    const Clock::time_point now = Clock::now();

    // Lease eligible shards (lowest index first) to idle workers.
    if (!st.draining) {
      for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        Worker& w = *workers_[wi];
        if (!w.alive || !w.hello || w.lease) continue;
        std::size_t best = st.pending.size();
        for (std::size_t j = 0; j < st.pending.size(); ++j) {
          if (st.pending[j].eligible <= now &&
              (best == st.pending.size() ||
               st.pending[j].task < st.pending[best].task)) {
            best = j;
          }
        }
        if (best == st.pending.size()) break;  // nothing eligible yet
        const StageState::Pending p = st.pending[best];
        st.pending.erase(st.pending.begin() +
                         static_cast<std::ptrdiff_t>(best));
        Message lease;
        lease.type = MsgType::kLease;
        lease.lease = {stage, p.task, p.attempt};
        try {
          send_frame(w.wfd, encode_message(lease));
        } catch (const DispatchError& e) {
          st.pending.push_back(p);  // not the shard's fault: same attempt
          lose_worker(w, std::string("lease write failed: ") + e.what());
          continue;
        }
        w.lease = std::move(lease.lease);
        w.lease_deadline =
            dispatch_.watchdog_ms > 0
                ? now + std::chrono::milliseconds(dispatch_.watchdog_ms)
                : Clock::time_point::max();
      }
    }

    // Poll worker pipes for handshakes, results, failures, heartbeats.
    std::vector<pollfd> fds;
    std::vector<Worker*> fd_workers;
    for (const auto& wp : workers_) {
      if (!wp->alive) continue;
      fds.push_back({wp->rfd, POLLIN, 0});
      fd_workers.push_back(wp.get());
    }
    if (fds.empty()) {
      enter_degraded("no live workers");
      continue;
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Worker& w = *fd_workers[i];
      if (!w.alive) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_worker(w);
      }
    }

    // Reap workers that died without a clean pipe close.
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive || w.pid <= 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        w.pid = -1;
        lose_worker(w, describe_exit(status));
      }
    }

    // Kill-based watchdog and heartbeat-silence monitor.
    const Clock::time_point after = Clock::now();
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = *workers_[wi];
      if (!w.alive) continue;
      if (w.lease && after >= w.lease_deadline) {
        kill_worker(w, "watchdog: lease deadline exceeded (" +
                           std::to_string(dispatch_.watchdog_ms) + " ms)");
        continue;
      }
      if (dispatch_.heartbeat_ms > 0 && w.hello &&
          after - w.last_seen >
              std::chrono::milliseconds(8 * dispatch_.heartbeat_ms)) {
        kill_worker(w, "silent past the heartbeat budget");
      }
    }

    if (st.draining && after >= st.drain_deadline) {
      for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        Worker& w = *workers_[wi];
        if (w.alive && w.lease) {
          w.lease.reset();  // drop, don't requeue: we are leaving
          kill_worker(w, "drain deadline exceeded");
        }
      }
    }
  }

  stage_ = nullptr;
  if (st.abort_error || interrupt_requested()) shutdown_workers();
  end_stage(st.abort_error);
  return payloads;
}

void DispatchSupervisorSession::shutdown_workers() {
  const std::vector<std::uint8_t> bye = make_msg(MsgType::kShutdown);
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (!w.alive || w.wfd < 0) continue;
    try {
      send_frame(w.wfd, bye);
    } catch (const DispatchError&) {
      // Already gone; the reap below handles it.
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(2'000);
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (!w.alive) continue;
    if (!reap(w.pid, deadline - Clock::now())) {
      (void)::kill(w.pid, SIGKILL);
      (void)::waitpid(w.pid, nullptr, 0);
    }
    w.close_pipes();
    w.pid = -1;
    w.alive = false;
    w.lease.reset();
  }
}

// --- worker ------------------------------------------------------------------

DispatchWorker::DispatchWorker(int read_fd, int write_fd, int worker_id,
                               std::uint64_t heartbeat_ms, FaultSpec fault)
    : read_fd_(read_fd), write_fd_(write_fd), injector_(fault) {
  (void)std::signal(SIGPIPE, SIG_IGN);
  Message hello;
  hello.type = MsgType::kHello;
  hello.worker_id = static_cast<std::uint64_t>(worker_id);
  send_locked(encode_message(hello));
  if (heartbeat_ms > 0) {
    heartbeat_ = std::thread([this, heartbeat_ms] {
      const std::vector<std::uint8_t> beat = make_msg(MsgType::kHeartbeat);
      std::unique_lock<std::mutex> lock(hb_mutex_);
      while (!stopping_) {
        if (hb_cv_.wait_for(lock, std::chrono::milliseconds(heartbeat_ms),
                            [this] { return stopping_; })) {
          break;
        }
        lock.unlock();
        try {
          send_locked(beat);
        } catch (const DispatchError&) {
          // Supervisor is gone; the main thread's read sees EOF and exits.
        }
        lock.lock();
      }
    });
  }
}

DispatchWorker::~DispatchWorker() {
  {
    const std::lock_guard<std::mutex> lock(hb_mutex_);
    stopping_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (read_fd_ >= 0) (void)::close(read_fd_);
  if (write_fd_ >= 0) (void)::close(write_fd_);
}

void DispatchWorker::declare(
    const std::string& name, std::size_t count,
    std::function<std::vector<std::uint8_t>(std::size_t)> run_encoded) {
  plan_[name] = count;
  stages_[name] = std::move(run_encoded);
}

void DispatchWorker::send_locked(const std::vector<std::uint8_t>& body) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  send_frame(write_fd_, body);
}

bool DispatchWorker::read_frame(std::vector<std::uint8_t>& body) {
  while (!parser_.next(body)) {
    std::uint8_t buf[16384];
    const ssize_t n = ::read(read_fd_, buf, sizeof(buf));
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DispatchError(std::string("control-channel read failed: ") +
                          std::strerror(errno));
    }
    parser_.feed(buf, static_cast<std::size_t>(n));
  }
  return true;
}

void DispatchWorker::serve() {
  std::vector<std::uint8_t> body;
  while (read_frame(body)) {
    const Message msg = decode_message(body, plan_);
    if (msg.type == MsgType::kShutdown) return;
    if (msg.type != MsgType::kLease) {
      throw DispatchError("unexpected message type from supervisor");
    }
    const Lease& lease = msg.lease;
    Message reply;
    reply.lease = lease;
    reply.count = plan_.at(lease.stage);
    try {
      injector_.on_task_start(lease.task, lease.attempt);
      std::vector<std::uint8_t> payload = stages_.at(lease.stage)(lease.task);
      // Checksum the pristine payload FIRST: an injected corruption then
      // guarantees a supervisor-side verification failure.
      reply.checksum = fnv1a64(payload.data(), payload.size());
      (void)injector_.maybe_corrupt(lease.task, lease.attempt, payload);
      reply.type = MsgType::kResult;
      reply.payload = std::move(payload);
    } catch (const std::exception& e) {
      reply.type = MsgType::kTaskFailed;
      reply.reason = e.what();
    }
    send_locked(encode_message(reply));
  }
}

}  // namespace tsc::runner
