#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace joinmi {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  num_threads = std::min(num_threads, kMaxThreads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

size_t ThreadPool::DefaultThreadCount() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

namespace internal {

void ParallelForOnExecutor(size_t n, size_t parallelism,
                           const std::function<void(size_t)>& fn) {
  static ThreadPool executor(ThreadPool::DefaultThreadCount());
  const size_t threads = std::min(
      parallelism == 0 ? ThreadPool::DefaultThreadCount() : parallelism, n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Per-call progress, shared with the helper tasks. A helper can start
  // after the call has returned (queued behind other work); it then claims
  // no index and leaves without touching `fn`, so only this state must
  // outlive the call.
  struct Progress {
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::condition_variable all_done;
    size_t done = 0;
    std::exception_ptr error;  // the first one captured
  };
  auto progress = std::make_shared<Progress>();
  auto drain = [progress, &fn, n] {
    size_t ran = 0;
    std::exception_ptr error;
    for (size_t i; (i = progress->next.fetch_add(1)) < n; ++ran) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(progress->mutex);
    progress->done += ran;
    // Exceptions move under the lock, so only the caller ever drops the
    // one it rethrows.
    if (error && !progress->error) progress->error = std::move(error);
    if (progress->done == n) progress->all_done.notify_all();
  };
  const size_t helpers = std::min(threads - 1, executor.num_threads());
  for (size_t h = 0; h < helpers; ++h) executor.Submit(drain);
  drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(progress->mutex);
    progress->all_done.wait(lock,
                            [&progress, n] { return progress->done == n; });
    error = std::move(progress->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace internal

}  // namespace joinmi
