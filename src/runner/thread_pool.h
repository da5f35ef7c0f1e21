// A fixed-size thread pool for the campaign engine.
//
// Design constraints, in order:
//   1. Determinism support: the pool itself is allowed to execute tasks in
//      any order, so deterministic callers (the sharded campaign runner)
//      key every task off an explicit index and collect results by index -
//      see parallel_map() - making output independent of scheduling.
//   2. Exception propagation: a task that throws must surface the exception
//      at the join point (std::future semantics), never terminate a worker.
//   3. Zero dependencies: std::thread + mutex/condvar only, since the
//      simulator targets plain toolchains.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tsc::runner {

class ThreadPool {
 public:
  /// Start `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a nullary callable; the returned future yields its result or
  /// rethrows its exception.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& f) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    ready_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

/// Run fn(0..count-1) across the pool and return the results in index order.
/// The result is a pure function of fn and count - never of thread count or
/// scheduling - provided fn(i) itself depends only on i.  If any invocation
/// throws, the first (lowest-index) exception is rethrown after all tasks
/// finish.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>, std::size_t>> {
  using R = std::invoke_result_t<std::decay_t<Fn>, std::size_t>;
  std::vector<std::future<R>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  }
  std::vector<R> results;
  results.reserve(count);
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      results.push_back(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace tsc::runner
