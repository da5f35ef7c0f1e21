// The campaign stage driver: the one place that decides how a campaign's
// shard tasks run.
//
// Every experiment that fans out declares its STAGES - pure (task index ->
// result) functions with a byte codec - and then hands one REDUCE (merge,
// score, JSON) to finish():
//
//   const StageResults<R> parts = campaign.stage("name", count, fn, codec);
//   return campaign.finish([&] { ...merge parts, score, build JSON... });
//
// A stage runs one of three ways:
//   * plain - typed parallel_map on the campaign's pool; the codec never
//     runs, so a campaign without fault-tolerance options pays nothing.
//   * FtSession - checkpoint/resume, retries, interrupts, --allow-partial;
//     under --dispatch the session is the supervisor, leasing tasks to
//     worker subprocesses (runner/dispatcher.h).  Fresh and resumed tasks
//     alike are decoded from their payloads.
//   * dispatch worker - stage() only records the task function, and
//     finish() serves leases for any declared stage until shutdown.
// The reduce runs once, only in the process that emits the JSON, and is
// the only code that reads stage results (a dispatch worker's are empty).
// A stage's task count must be a pure function of the scale knobs, never
// of the worker count: dispatch workers rebuild the plan without --shards.
// A stage function declared by a helper that returns before finish() must
// own its captures, since a dispatch worker runs it later.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/dispatcher.h"
#include "runner/json.h"
#include "runner/thread_pool.h"

namespace tsc::runner {

/// Typed task codec: encode must write the EXACT state of R (its decode
/// must reproduce R bit-for-bit), and the bytes are the checkpoint format.
template <typename R>
struct TaskCodec {
  std::function<void(const R&, ByteWriter&)> encode;
  std::function<R(ByteReader&)> decode;
};

/// A stage's results in task order; nullopt marks a task that exhausted
/// its retries under --allow-partial (and is listed in the manifest).
template <typename R>
using StageResults = std::vector<std::optional<R>>;

class Campaign {
 public:
  /// `workers` sizes the stage thread pool (0 = hardware concurrency).
  /// With a `session`, stages run fault-tolerantly through it; with a
  /// `worker`, this process only serves leases.
  explicit Campaign(unsigned workers, FtSession* session = nullptr,
                    DispatchWorker* worker = nullptr)
      : workers_(workers), session_(session), worker_(worker) {}

  /// Declare stage `name` with tasks [0, count): fn(i) must be a pure
  /// function of i.  Returns the results in task order - empty in a
  /// dispatch worker, which never reads them.  Stage names key the
  /// checkpoint and the lease protocol, so they are part of the format.
  template <typename R, typename Fn>
  [[nodiscard]] StageResults<R> stage(const std::string& name,
                                      std::size_t count, Fn&& fn,
                                      const TaskCodec<R>& codec) {
    static_assert(std::is_same_v<std::invoke_result_t<Fn&, std::size_t>, R>,
                  "the task function must return the codec's type");
    StageResults<R> out;
    if (worker_ == nullptr && session_ == nullptr) {
      out.reserve(count);
      for (R& r : parallel_map(pool(), count, fn)) {
        out.emplace_back(std::move(r));
      }
      return out;
    }
    auto run_encoded = [fn = std::decay_t<Fn>(fn), codec](std::size_t i) {
      ByteWriter w;
      codec.encode(fn(i), w);
      return std::move(w).take();
    };
    if (worker_ != nullptr) {
      worker_->declare(name, count, std::move(run_encoded));
      return out;
    }
    out.reserve(count);
    StagePayloads payloads =
        session_->run_stage(name, pool(), count, run_encoded);
    for (std::optional<std::vector<std::uint8_t>>& payload : payloads) {
      if (payload) {
        ByteReader r(*payload);
        out.emplace_back(codec.decode(r));
        payload.reset();  // free each payload once decoded
      } else {
        out.emplace_back();
      }
    }
    return out;
  }

  /// End the campaign: in a dispatch worker, serve leases until shutdown
  /// and return null without calling `reduce`; otherwise return reduce().
  [[nodiscard]] Json finish(const std::function<Json()>& reduce) {
    if (worker_ != nullptr) {
      worker_->serve();
      return Json();
    }
    // The reduce is serial: let the pool's threads, and the machines they
    // keep, go before it allocates.
    pool_.reset();
    return reduce();
  }

 private:
  ThreadPool& pool() {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(workers_);
    return *pool_;
  }

  unsigned workers_;
  FtSession* session_;
  DispatchWorker* worker_;
  std::unique_ptr<ThreadPool> pool_;  ///< created by the first stage
};

}  // namespace tsc::runner
