// Campaign checkpointing and the fault-tolerant shard runner.
//
// The sharded engine's accumulators (TimingProfile, Descriptive, the
// attack-matrix profiles and histograms) were built exact-mergeable so a
// campaign could be interrupted, resumed and distributed.  This layer makes
// that real:
//
//   * Checkpoint - a versioned, append-only journal of completed shard
//     payloads, keyed by (stage, task index).  Payloads are the EXACT
//     encoded task results (doubles as IEEE bit patterns, integers
//     varint-packed), so a resumed campaign merges byte-identically with an
//     uninterrupted one.  Every record carries an FNV-1a checksum over the
//     whole record; load drops corrupt records and a torn tail (their
//     shards simply re-run) but REJECTS version or fingerprint mismatches
//     outright.  The first save writes a snapshot atomically (temp file +
//     rename); later saves append only the new records and fsync, so a
//     campaign's checkpoint I/O is linear in its length.
//
//   * FtSession::run_stage - the byte-level stage engine behind
//     runner/campaign.h: per-shard retry with a bounded attempt budget,
//     periodic checkpoint flushes, cooperative interrupt draining (flush,
//     then throw Interrupted), and an opt-in allow-partial mode that
//     records exhausted shards in an incomplete manifest instead of failing
//     the campaign.  A hung shard needs a process boundary to be reclaimed:
//     the kill-based watchdog lives in the --dispatch supervisor
//     (runner/dispatcher.h).
//
// Determinism: shard tasks stay pure functions of their index, completed
// payloads are bit-exact round-trips, and merges remain in shard-index
// order - so for ANY interruption point, retry history or worker count the
// final JSON is byte-identical to an uninterrupted run.  The disabled path
// costs nothing: without fault-tolerance options a Campaign runs its
// stages on the plain parallel_map and never encodes a payload.
#pragma once

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/fault.h"
#include "runner/thread_pool.h"

namespace tsc::runner {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- exact byte encoding -----------------------------------------------------

/// Append-only little-endian encoder.  Doubles are stored as IEEE-754 bit
/// patterns (bit_cast), never as text, so every value round-trips exactly -
/// the property the byte-identity contract rests on.  Unsigned integers use
/// LEB128 varints: campaign accumulators are mostly zeros and small counts,
/// which keeps multi-megabyte profile records compact on disk.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_f64(double v) { put_fixed64(std::bit_cast<std::uint64_t>(v)); }
  void put_fixed64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void put_bytes(const std::uint8_t* data, std::size_t n) {
    bytes_.insert(bytes_.end(), data, data + n);
  }
  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder over a byte span; throws CheckpointError on
/// underrun or malformed varints instead of reading garbage.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1);
      const std::uint8_t b = *p_++;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw CheckpointError("malformed varint in checkpoint payload");
  }
  [[nodiscard]] std::uint64_t fixed64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    }
    p_ += 8;
    return v;
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(fixed64()); }
  [[nodiscard]] const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* out = p_;
    p_ += n;
    return out;
  }
  [[nodiscard]] std::string string() {
    const std::size_t n = static_cast<std::size_t>(varint());
    const std::uint8_t* data = bytes(n);
    return std::string(reinterpret_cast<const char*>(data), n);
  }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      throw CheckpointError("checkpoint payload truncated");
    }
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// FNV-1a 64-bit checksum - the per-record integrity check.
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

/// Write `contents` to `path` atomically AND durably: temp file in the same
/// directory, fsync the temp file, rename over the target, then fsync the
/// directory so the rename itself survives power loss.  A crash mid-write
/// never leaves a torn file; a crash after return never loses the file.
/// Used for checkpoints and for tsc_run --output JSON artifacts.  Throws
/// CheckpointError (loudly, with errno detail) on any I/O failure.
void atomic_write_file(const std::string& path, std::string_view contents);

// --- checkpoint file ---------------------------------------------------------

/// Supported checkpoint format version.  Load rejects any other version -
/// a stale file must be regenerated, never half-interpreted.  Version 2 is
/// the append-only journal (docs/fault_tolerance.md).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// In-memory checkpoint: completed task payloads keyed by (stage, task),
/// bound to one (experiment, fingerprint) pair.  The fingerprint encodes
/// every option that shapes the shard plan (samples, seed, shard size - but
/// NEVER the worker count), so a checkpoint cannot silently resume into a
/// differently-sharded campaign.
///
/// On disk it is a header followed by self-framed records, one per put().
/// The first save() to a path writes a compacted snapshot atomically; each
/// later save() to the same path appends just the records put since the
/// previous save, then fsyncs.
class Checkpoint {
 public:
  Checkpoint() = default;
  Checkpoint(std::string experiment, std::string fingerprint)
      : experiment_(std::move(experiment)),
        fingerprint_(std::move(fingerprint)) {}

  /// Parse `path`.  Throws CheckpointError on a missing/unreadable file,
  /// bad magic, version mismatch, damaged header, or two records of one
  /// stage with different task counts.  A record whose checksum fails is
  /// dropped; a truncated or structurally broken tail is dropped.  Either
  /// way a note goes to stderr and the lost shards re-run on resume.  The
  /// last record of each (stage, task) wins.
  [[nodiscard]] static Checkpoint load(const std::string& path);

  /// Make every record durable in `path` and return the bytes written.  If
  /// this object's previous save went to `path`, appends the records put
  /// since then and fsyncs; otherwise (first save, or first save after a
  /// load) writes a compacted snapshot atomically, so a torn tail is never
  /// appended to.
  std::size_t save(const std::string& path);

  /// Record one completed task payload (replaces any previous record).
  void put(const std::string& stage, std::size_t task_count, std::size_t task,
           std::vector<std::uint8_t> payload);

  /// The payload of (stage, task), or nullptr.  Throws CheckpointError if
  /// the stage exists with a DIFFERENT task count - the shard plan changed
  /// and the records cannot mean what they say.
  [[nodiscard]] const std::vector<std::uint8_t>* find(const std::string& stage,
                                                      std::size_t task_count,
                                                      std::size_t task) const;

  [[nodiscard]] const std::string& experiment() const { return experiment_; }
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t record_count() const;

 private:
  struct Stage {
    std::size_t task_count = 0;
    std::map<std::size_t, std::vector<std::uint8_t>> records;
  };
  void check_task_count(const Stage& stage, std::size_t task_count) const;

  std::string experiment_;
  std::string fingerprint_;
  std::map<std::string, Stage> stages_;
  std::string journal_path_;  ///< where the last save went ("" = none)
  std::set<std::pair<std::string, std::size_t>> unsaved_;  ///< put since
};

// --- fault-tolerant shard runner ---------------------------------------------

/// Runner-level fault-tolerance options, parsed by tsc_run.
struct FtOptions {
  std::string checkpoint_path;    ///< empty = no checkpointing
  bool resume = false;            ///< load checkpoint_path, skip done shards
  std::size_t checkpoint_every = 8;  ///< flush after this many completions
  /// Time-based flush cadence: also flush when this many milliseconds have
  /// passed since the last flush (checked at each completion, so slow cells
  /// don't ride minutes of unflushed work on the count cadence).  0 = off.
  std::uint64_t checkpoint_interval_ms = 0;
  int max_attempts = 3;           ///< per-shard attempt budget
  bool allow_partial = false;     ///< record exhausted shards, don't fail
  std::size_t stop_after = 0;     ///< test seam: interrupt after N
                                  ///< session-wide completions (0 = off)
  FaultSpec fault;                ///< injected fault (kind == kNone: none)
  BackoffSpec backoff;            ///< retry backoff (dispatch mode)

  /// Whether any fault-tolerance machinery is requested.  False keeps
  /// in-process campaigns on the plain parallel_map path - zero added cost.
  [[nodiscard]] bool enabled() const {
    return !checkpoint_path.empty() || resume || allow_partial ||
           stop_after > 0 || fault.kind != FaultKind::kNone;
  }
};

/// One incomplete shard in the --allow-partial manifest.
struct IncompleteShard {
  std::string stage;
  std::size_t task = 0;
  std::string reason;
};

/// A stage's encoded task payloads in task order; nullopt = not (yet)
/// completed.
using StagePayloads = std::vector<std::optional<std::vector<std::uint8_t>>>;

/// A fault-tolerant campaign session: owns the checkpoint state, the fault
/// injector and the incomplete-shard manifest across every stage of one
/// experiment run.  Stages run sequentially (fig5 runs one per setup);
/// run_stage itself fans its shards out on the pool.
class FtSession {
 public:
  /// Creates the session; with resume set, loads options.checkpoint_path
  /// (a missing file starts fresh; a version/fingerprint/experiment
  /// mismatch throws CheckpointError).
  FtSession(FtOptions options, std::string experiment,
            std::string fingerprint);
  virtual ~FtSession() = default;
  FtSession(const FtSession&) = delete;
  FtSession& operator=(const FtSession&) = delete;

  /// The byte-level engine: run tasks [0, count) of `stage`, skipping ones
  /// already in the checkpoint, with retry / flush / interrupt handling as
  /// configured.  `run_encoded(task)` must be a pure function
  /// of the task index returning the task's encoded payload.  Missing
  /// entries in the returned vector are exhausted shards (allow_partial
  /// only).  Throws Interrupted or CampaignAborted after flushing.
  /// Virtual so the multi-process dispatcher (runner/dispatcher.h) can
  /// lease the tasks to worker subprocesses instead of pool threads.
  [[nodiscard]] virtual StagePayloads run_stage(
      const std::string& stage, ThreadPool& pool, std::size_t count,
      const std::function<std::vector<std::uint8_t>(std::size_t)>&
          run_encoded) {
    return run_in_process(stage, pool, resumed(stage, count), run_encoded);
  }

  /// Shards that exhausted their retries across all stages so far.
  [[nodiscard]] const std::vector<IncompleteShard>& incomplete() const {
    return incomplete_;
  }
  /// Completed-task count across the session (resumed shards included).
  [[nodiscard]] std::size_t completed_tasks() const { return completed_; }
  /// Shard attempts that failed (telemetry).
  [[nodiscard]] std::size_t failed_attempts() const { return failed_attempts_; }
  /// Checkpoint flushes performed (telemetry; the time-based cadence test
  /// observes mid-stage flushes through this).
  [[nodiscard]] std::size_t flush_count() const { return flush_count_; }
  /// Checkpoint bytes actually written across all flushes (telemetry; the
  /// journal keeps this linear in the campaign, about its final file size).
  [[nodiscard]] std::size_t checkpoint_bytes_written() const {
    return checkpoint_bytes_written_;
  }

  /// Flush the checkpoint now (no-op without a checkpoint path).
  void flush();

 protected:
  /// The payloads of `stage` already in the checkpoint (a resumed run).
  [[nodiscard]] StagePayloads resumed(const std::string& stage,
                                      std::size_t count) const;

  /// Run every task of `stage` whose entry in `payloads` is still empty on
  /// `pool`, in process; `payloads.size()` is the stage's task count.  The
  /// dispatch supervisor's degraded fallback continues a half-leased stage
  /// through this.
  [[nodiscard]] StagePayloads run_in_process(
      const std::string& stage, ThreadPool& pool, StagePayloads payloads,
      const std::function<std::vector<std::uint8_t>(std::size_t)>&
          run_encoded);

  /// Book a failed attempt of `stage`/`task`.  True when the task has
  /// attempts left and the caller should retry it; otherwise the task is
  /// recorded incomplete (allow_partial) or `abort_error` is set.
  bool charge_failure(const std::string& stage, std::size_t task, int attempt,
                      const std::string& why, std::exception_ptr& abort_error);

  /// End a stage: flush, then rethrow `abort_error`, or throw Interrupted
  /// if an interrupt arrived.
  void end_stage(const std::exception_ptr& abort_error);

  /// Record a completed payload: store it in the checkpoint (when a
  /// checkpoint path is configured), apply the count- and time-based flush
  /// cadences, and honor the stop_after test seam.
  void note_completed(const std::string& stage, std::size_t count,
                      std::size_t task,
                      const std::vector<std::uint8_t>& payload);

  FtOptions options_;
  FaultInjector injector_;
  Checkpoint checkpoint_;
  std::vector<IncompleteShard> incomplete_;
  std::size_t completed_ = 0;
  std::size_t failed_attempts_ = 0;
  std::size_t unflushed_ = 0;
  std::size_t flush_count_ = 0;
  std::size_t checkpoint_bytes_written_ = 0;
  std::chrono::steady_clock::time_point last_flush_ =
      std::chrono::steady_clock::now();
};

}  // namespace tsc::runner
