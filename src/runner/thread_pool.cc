#include "runner/thread_pool.h"

#include <algorithm>

namespace tsc::runner {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n =
      threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                   : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace tsc::runner
