// Fixed-size thread pool with future-returning task submission, and
// ParallelFor, the process-wide executor every CPU-bound discovery
// fan-out runs on (work that waits on the network keeps off it).
// The pool is deliberately minimal — a locked deque feeding N workers —
// because the discovery workloads built on top of it are coarse-grained
// (one task per strip of candidates or per shard), so queue contention is
// negligible next to the sketch-probe work each task performs.

#ifndef JOINMI_COMMON_THREAD_POOL_H_
#define JOINMI_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace joinmi {

/// \brief A fixed-size pool of worker threads draining a shared task queue.
///
/// Tasks may themselves submit further tasks. The destructor waits for all
/// queued and running tasks to finish before joining the workers.
class ThreadPool {
 public:
  /// \brief Starts `num_threads` workers; 0 means hardware concurrency
  /// (itself clamped to at least one). Requests are capped at
  /// `kMaxThreads` so a miscomputed count degrades instead of exhausting
  /// the process thread limit.
  explicit ThreadPool(size_t num_threads = 0);

  /// Upper bound on workers per pool.
  static constexpr size_t kMaxThreads = 1024;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Drains the queue and joins all workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Enqueues a callable and returns a future for its result. The
  /// callable's exceptions propagate through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// \brief Blocks until every queued and running task has completed.
  void Wait();

  /// \brief Hardware concurrency, never zero.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;   // workers wait here for tasks
  std::condition_variable idle_;   // Wait() blocks here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;   // tasks currently executing
  bool stopping_ = false;
};

namespace internal {

/// \brief ParallelFor's pooled path.
void ParallelForOnExecutor(size_t n, size_t parallelism,
                           const std::function<void(size_t)>& fn);

}  // namespace internal

/// \brief Runs fn(i) once for every i in [0, n), with at most
/// `parallelism` threads at once (0 = ThreadPool::DefaultThreadCount()),
/// and returns when every call has returned.
///
/// Work runs on one process-wide ThreadPool of DefaultThreadCount()
/// workers, started on first use and shared by every caller, so no call
/// spawns threads of its own. The calling thread claims items too: a
/// ParallelFor nested inside `fn` finishes even when every worker is
/// busy, because the caller alone can drain it. An exception from fn
/// reaches the caller only once no item is still running; a pooled call
/// runs the remaining items first and rethrows one of the exceptions.
/// `parallelism` 1, or `n` <= 1, runs inline on the caller without
/// touching the pool or the heap.
template <typename Fn>
void ParallelFor(size_t n, size_t parallelism, Fn&& fn) {
  if (parallelism == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  internal::ParallelForOnExecutor(n, parallelism, std::ref(fn));
}

}  // namespace joinmi

#endif  // JOINMI_COMMON_THREAD_POOL_H_
