#include "runner/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

namespace tsc::runner {
namespace {

constexpr char kMagic[6] = {'T', 'S', 'C', 'K', 'P', 'T'};
// Byte offset of the fixed little-endian u32 version field: right after the
// magic.  Kept stable so tests can patch it to exercise version rejection.
constexpr std::size_t kVersionOffset = sizeof(kMagic);

/// write(2) all of `n` bytes, retrying short writes and EINTR.  False (with
/// errno set) on failure.
bool write_fully(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t written = 0;
  while (written < n) {
    const ssize_t k = ::write(fd, data + written, n - written);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(k);
  }
  return true;
}

/// One journal record: stage, task count, task, length-prefixed payload,
/// then an FNV-1a checksum over every byte of the record before it.
void put_record(ByteWriter& w, const std::string& stage,
                std::size_t task_count, std::size_t task,
                const std::vector<std::uint8_t>& payload) {
  const std::size_t start = w.bytes().size();
  w.put_string(stage);
  w.put_varint(task_count);
  w.put_varint(task);
  w.put_varint(payload.size());
  w.put_bytes(payload.data(), payload.size());
  w.put_fixed64(fnv1a64(w.bytes().data() + start, w.bytes().size() - start));
}

/// Append `bytes` to the existing file at `path` and fsync it: once this
/// returns the records survive power loss (the file's directory entry was
/// made durable by the snapshot that created it).
void append_durably(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  const auto fail = [&](const std::string& what, int fd) {
    const int err = errno;
    if (fd >= 0) (void)::close(fd);
    throw CheckpointError(what + " ('" + path + "'): " +
                          (err != 0 ? std::strerror(err) : "unknown error"));
  };
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) fail("cannot open checkpoint journal for appending", fd);
  if (!write_fully(fd, bytes.data(), bytes.size())) {
    fail("short append to checkpoint journal", fd);
  }
  if (::fsync(fd) != 0) fail("fsync of checkpoint journal failed", fd);
  if (::close(fd) != 0) fail("close of checkpoint journal failed", -1);
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void atomic_write_file(const std::string& path, std::string_view contents) {
  // Durability, not just atomicity: stream buffers flushed to the kernel is
  // NOT enough - a power loss after rename(2) could still surface an empty
  // or torn file if the temp file's data never reached the disk.  So:
  // write, fsync the temp FILE, rename, fsync the DIRECTORY (the rename is
  // a directory mutation), and fail loudly at every step.
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& what) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    throw CheckpointError(what + " ('" + tmp + "'): " +
                          (err != 0 ? std::strerror(err) : "unknown error"));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open temp file for writing");
  if (!write_fully(fd, reinterpret_cast<const std::uint8_t*>(contents.data()),
                   contents.size())) {
    (void)::close(fd);
    fail("short write to temp file");
  }
  if (::fsync(fd) != 0) {
    (void)::close(fd);
    fail("fsync of temp file failed");
  }
  if (::close(fd) != 0) fail("close of temp file failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename temp file to '" + path + "'");
  }
  // fsync the containing directory so the rename itself is durable.  A
  // failure here is loud too: callers are entitled to assume the artifact
  // survives power loss once this function returns.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    throw CheckpointError("cannot open directory '" + dir +
                          "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    const int err = errno;
    (void)::close(dfd);
    throw CheckpointError("fsync of directory '" + dir +
                          "' failed: " + std::strerror(err));
  }
  (void)::close(dfd);
}

// --- Checkpoint --------------------------------------------------------------

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff file_size = in.good() ? std::streamoff(in.tellg()) : -1;
  if (file_size < 0) {
    throw CheckpointError("cannot read checkpoint '" + path + "'");
  }
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(file_size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(raw.data()),
               static_cast<std::streamsize>(raw.size()))) {
    throw CheckpointError("cannot read checkpoint '" + path + "'");
  }
  const std::uint8_t* data = raw.data();

  if (raw.size() < kVersionOffset + 4 ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("'" + path + "' is not a tsc checkpoint");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(data[kVersionOffset + i]) << (8 * i);
  }
  if (version != kCheckpointVersion) {
    throw CheckpointError(
        "checkpoint '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kCheckpointVersion) + " - delete it and rerun");
  }

  ByteReader reader(data + kVersionOffset + 4, raw.size() - kVersionOffset - 4);
  Checkpoint out;
  try {
    out.experiment_ = reader.string();
    out.fingerprint_ = reader.string();
  } catch (const CheckpointError&) {
    // The header is written once, atomically: damage here is not a torn
    // append, and without it nothing else can be trusted.
    throw CheckpointError("checkpoint '" + path + "' has a damaged header");
  }
  while (reader.remaining() > 0) {
    const std::size_t offset = raw.size() - reader.remaining();
    std::string stage;
    std::uint64_t task_count = 0;
    std::uint64_t task = 0;
    std::size_t size = 0;
    const std::uint8_t* payload = nullptr;
    std::uint64_t stored_sum = 0;
    try {
      stage = reader.string();
      task_count = reader.varint();
      task = reader.varint();
      size = static_cast<std::size_t>(reader.varint());
      payload = reader.bytes(size);
      stored_sum = reader.fixed64();
    } catch (const CheckpointError&) {
      // A torn append (crash mid-flush) or a damaged length: nothing after
      // this point can be framed, so drop it; those shards re-run.
      std::fprintf(stderr,
                   "[checkpoint] dropping torn tail of %s: %zu byte(s) from "
                   "offset %zu\n",
                   path.c_str(), raw.size() - offset, offset);
      break;
    }
    const std::size_t end = raw.size() - reader.remaining() - 8;
    if (fnv1a64(data + offset, end - offset) != stored_sum) {
      // A corrupted record: drop it (the shard re-runs) but keep the rest
      // of the journal usable.
      std::fprintf(stderr,
                   "[checkpoint] dropping corrupt record at offset %zu of %s\n",
                   offset, path.c_str());
      continue;
    }
    out.put(stage, static_cast<std::size_t>(task_count),
            static_cast<std::size_t>(task),
            std::vector<std::uint8_t>(payload, payload + size));
  }
  out.unsaved_.clear();  // loaded, not new: the next save is a snapshot
  return out;
}

std::size_t Checkpoint::save(const std::string& path) {
  ByteWriter w;
  if (path != journal_path_) {
    // Snapshot: header plus every record, written atomically.  The only
    // way a journal starts, so appends never follow a torn tail.
    w.put_bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic));
    for (int i = 0; i < 4; ++i) {
      w.put_u8(static_cast<std::uint8_t>(kCheckpointVersion >> (8 * i)));
    }
    w.put_string(experiment_);
    w.put_string(fingerprint_);
    for (const auto& [name, stage] : stages_) {
      for (const auto& [task, payload] : stage.records) {
        put_record(w, name, stage.task_count, task, payload);
      }
    }
    const std::vector<std::uint8_t>& bytes = w.bytes();
    atomic_write_file(
        path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size()));
    journal_path_ = path;
  } else {
    if (unsaved_.empty()) return 0;
    for (const auto& [name, task] : unsaved_) {
      const Stage& stage = stages_.at(name);
      put_record(w, name, stage.task_count, task, stage.records.at(task));
    }
    try {
      append_durably(path, w.bytes());
    } catch (const CheckpointError&) {
      journal_path_.clear();  // the tail may be torn: next save snapshots
      throw;
    }
  }
  unsaved_.clear();
  return w.bytes().size();
}

void Checkpoint::check_task_count(const Stage& stage,
                                  std::size_t task_count) const {
  if (stage.task_count != task_count) {
    throw CheckpointError(
        "checkpoint stage task count " + std::to_string(stage.task_count) +
        " does not match this campaign's shard plan (" +
        std::to_string(task_count) +
        ") - the checkpoint was produced by a different configuration");
  }
}

void Checkpoint::put(const std::string& stage_name, std::size_t task_count,
                     std::size_t task, std::vector<std::uint8_t> payload) {
  Stage& stage = stages_[stage_name];
  if (stage.records.empty() && stage.task_count == 0) {
    stage.task_count = task_count;
  }
  check_task_count(stage, task_count);
  stage.records[task] = std::move(payload);
  unsaved_.emplace(stage_name, task);
}

const std::vector<std::uint8_t>* Checkpoint::find(const std::string& stage_name,
                                                  std::size_t task_count,
                                                  std::size_t task) const {
  const auto it = stages_.find(stage_name);
  if (it == stages_.end()) return nullptr;
  check_task_count(it->second, task_count);
  const auto rec = it->second.records.find(task);
  return rec == it->second.records.end() ? nullptr : &rec->second;
}

std::size_t Checkpoint::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, stage] : stages_) n += stage.records.size();
  return n;
}

// --- FtSession ---------------------------------------------------------------

FtSession::FtSession(FtOptions options, std::string experiment,
                     std::string fingerprint)
    : options_(std::move(options)), injector_(options_.fault) {
  if (options_.resume && !options_.checkpoint_path.empty()) {
    bool exists = false;
    {
      std::ifstream probe(options_.checkpoint_path, std::ios::binary);
      exists = probe.good();
    }
    if (exists) {
      checkpoint_ = Checkpoint::load(options_.checkpoint_path);
      if (checkpoint_.experiment() != experiment) {
        throw CheckpointError("checkpoint is for experiment '" +
                              checkpoint_.experiment() + "', not '" +
                              experiment + "'");
      }
      if (checkpoint_.fingerprint() != fingerprint) {
        throw CheckpointError(
            "checkpoint fingerprint [" + checkpoint_.fingerprint() +
            "] does not match this invocation [" + fingerprint +
            "] - resume with the original --samples/--seed/--shard-size");
      }
      std::fprintf(stderr, "[checkpoint] resuming: %zu completed shard(s)\n",
                   checkpoint_.record_count());
      return;
    }
    std::fprintf(stderr,
                 "[checkpoint] no checkpoint at %s; starting fresh\n",
                 options_.checkpoint_path.c_str());
  }
  checkpoint_ = Checkpoint(std::move(experiment), std::move(fingerprint));
}

void FtSession::flush() {
  if (options_.checkpoint_path.empty()) return;
  checkpoint_bytes_written_ += checkpoint_.save(options_.checkpoint_path);
  unflushed_ = 0;
  ++flush_count_;
  last_flush_ = std::chrono::steady_clock::now();
}

void FtSession::note_completed(const std::string& stage, std::size_t count,
                               std::size_t task,
                               const std::vector<std::uint8_t>& payload) {
  if (!options_.checkpoint_path.empty()) {
    checkpoint_.put(stage, count, task, payload);
    ++unflushed_;
    const bool count_due = unflushed_ >= options_.checkpoint_every;
    const bool time_due =
        options_.checkpoint_interval_ms > 0 &&
        std::chrono::steady_clock::now() - last_flush_ >=
            std::chrono::milliseconds(options_.checkpoint_interval_ms);
    if (count_due || time_due) flush();
  }
  ++completed_;
  if (options_.stop_after > 0 && completed_ >= options_.stop_after) {
    request_interrupt();  // the TSC_STOP_AFTER "kill" seam
  }
}

bool FtSession::charge_failure(const std::string& stage, std::size_t task,
                               int attempt, const std::string& why,
                               std::exception_ptr& abort_error) {
  ++failed_attempts_;
  if (attempt + 1 < options_.max_attempts) return true;
  if (options_.allow_partial) {
    std::fprintf(stderr,
                 "[fault] %s/%zu exhausted %d attempts (%s); recording as "
                 "incomplete\n",
                 stage.c_str(), task, options_.max_attempts, why.c_str());
    incomplete_.push_back({stage, task, why});
  } else if (!abort_error) {
    abort_error = std::make_exception_ptr(CampaignAborted(
        "shard " + stage + "/" + std::to_string(task) + " failed after " +
        std::to_string(options_.max_attempts) + " attempts: " + why));
  }
  return false;
}

void FtSession::end_stage(const std::exception_ptr& abort_error) {
  if (unflushed_ > 0) flush();
  if (abort_error) std::rethrow_exception(abort_error);
  if (interrupt_requested()) {
    throw Interrupted(
        !options_.checkpoint_path.empty()
            ? "campaign interrupted; checkpoint flushed, rerun with --resume"
            : "campaign interrupted (no --checkpoint: progress discarded)");
  }
}

StagePayloads FtSession::resumed(const std::string& stage,
                                 std::size_t count) const {
  StagePayloads payloads(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (const std::vector<std::uint8_t>* rec =
            checkpoint_.find(stage, count, i)) {
      payloads[i] = *rec;
    }
  }
  return payloads;
}

StagePayloads FtSession::run_in_process(
    const std::string& stage, ThreadPool& pool, StagePayloads payloads,
    const std::function<std::vector<std::uint8_t>(std::size_t)>&
        run_encoded) {
  const std::size_t count = payloads.size();
  std::deque<std::pair<std::size_t, int>> queue;  // (task, attempt)
  for (std::size_t i = 0; i < count; ++i) {
    if (!payloads[i]) queue.emplace_back(i, 0);
  }

  struct InFlight {
    std::size_t task;
    int attempt;
    std::future<std::vector<std::uint8_t>> future;
  };
  std::vector<InFlight> inflight;
  const std::size_t width = std::max(1u, pool.size());
  bool draining = false;
  std::exception_ptr abort_error;

  const auto launch = [&](std::size_t task, int attempt) {
    inflight.push_back(
        {task, attempt, pool.submit([this, task, attempt, &run_encoded] {
           injector_.on_task_start(task, attempt);
           return run_encoded(task);
         })});
  };

  // A failed attempt either re-queues (budget left), records an incomplete
  // shard (--allow-partial) or aborts the stage with the checkpoint flushed.
  const auto attempt_failed = [&](std::size_t task, int attempt,
                                  const std::string& why) {
    if (charge_failure(stage, task, attempt, why, abort_error)) {
      std::fprintf(stderr, "[fault] %s/%zu attempt %d failed (%s); retrying\n",
                   stage.c_str(), task, attempt, why.c_str());
      queue.emplace_front(task, attempt + 1);
    } else if (abort_error) {
      draining = true;  // finish in-flight shards, flush, then throw
    }
  };

  while (!inflight.empty() || (!queue.empty() && !draining)) {
    if (interrupt_requested()) draining = true;
    while (!draining && !queue.empty() && inflight.size() < width) {
      const auto [task, attempt] = queue.front();
      queue.pop_front();
      launch(task, attempt);
    }

    bool progressed = false;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const std::size_t task = it->task;
        const int attempt = it->attempt;
        auto future = std::move(it->future);
        it = inflight.erase(it);
        progressed = true;
        try {
          std::vector<std::uint8_t> payload = future.get();
          const std::uint64_t sum = fnv1a64(payload.data(), payload.size());
          if (injector_.maybe_corrupt(task, attempt, payload) &&
              fnv1a64(payload.data(), payload.size()) != sum) {
            attempt_failed(task, attempt, "payload checksum mismatch");
            continue;
          }
          note_completed(stage, count, task, payload);
          payloads[task] = std::move(payload);
        } catch (const std::exception& e) {
          attempt_failed(task, attempt, e.what());
        }
      } else {
        ++it;
      }
    }
    if (!progressed && !inflight.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  end_stage(abort_error);
  return payloads;
}

}  // namespace tsc::runner
