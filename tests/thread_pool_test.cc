// Tests for the fixed-size thread pool (task execution, future plumbing,
// draining semantics, nested submission, exception propagation) and for
// ParallelFor, the shared executor every discovery fan-out runs on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/discovery/sketch_index.h"

namespace joinmi {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreadCount());
}

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, FuturesCarryResults) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  // sum of squares 0^2..49^2
  EXPECT_EQ(sum, 49 * 50 * 99 / 6);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, SingleThreadPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}


// ------------------------------------------------------------ ParallelFor

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (size_t n : {0u, 1u, 7u, 1000u}) {
    for (size_t parallelism : {0u, 1u, 2u, 64u}) {
      std::vector<std::atomic<int>> runs(n);
      ParallelFor(n, parallelism, [&runs](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "n=" << n << " parallelism=" << parallelism << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ParallelismOneRunsOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  ParallelFor(ran_on.size(), 1,
              [&ran_on](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, NestedCallsComplete) {
  // Every outer item runs a whole inner ParallelFor. With more outer items
  // than workers, every worker can be inside an outer item at once; the
  // inner calls must still finish because their callers drain them.
  for (size_t parallelism : {0u, 1u, 2u, 64u}) {
    const size_t outer = 4 * ThreadPool::DefaultThreadCount() + 3;
    const size_t inner = 50;
    std::atomic<size_t> total{0};
    ParallelFor(outer, parallelism, [&](size_t) {
      ParallelFor(inner, parallelism, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), outer * inner) << "parallelism=" << parallelism;
  }
}

TEST(ParallelForTest, ThrowReachesTheCallerAfterEveryItemReturned) {
  for (size_t parallelism : {0u, 1u, 2u, 64u}) {
    const size_t n = 200;
    std::atomic<size_t> returned{0};
    bool caught = false;
    try {
      ParallelFor(n, parallelism, [&returned](size_t i) {
        if (i == 37 || i == 150) {
          throw std::runtime_error("item " + std::to_string(i) + " failed");
        }
        returned.fetch_add(1);
      });
    } catch (const std::runtime_error& error) {
      caught = true;
      const std::string what = error.what();
      EXPECT_TRUE(what == "item 37 failed" || what == "item 150 failed")
          << what;
    }
    EXPECT_TRUE(caught) << "parallelism=" << parallelism;
    const size_t threads =
        parallelism == 0 ? ThreadPool::DefaultThreadCount() : parallelism;
    if (threads > 1) {
      // Pooled: the other items still ran, and all had returned by the
      // time an exception reached the caller. Inline, the first throw
      // simply unwinds the loop.
      EXPECT_EQ(returned.load(), n - 2) << "parallelism=" << parallelism;
    }
  }
  // The executor keeps serving after a failed call.
  std::atomic<size_t> after{0};
  ParallelFor(64, 4, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64u);
}

TEST(ParallelForTest, ScoreCandidatesReusesTheSharedExecutorsThreads) {
  // A per-call pool would spawn fresh threads on every call, so 20 calls
  // would see far more than the executor's workers plus the caller.
  std::mutex mutex;
  std::set<pid_t> scorers;
  for (int call = 0; call < 20; ++call) {
    ScoreCandidates(64, /*num_threads=*/4, /*strip=*/1,
                    [&](size_t, PairedSample*) {
                      {
                        std::lock_guard<std::mutex> lock(mutex);
                        scorers.insert(gettid());
                      }
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(50));
                      return CandidateScore{};
                    });
  }
  EXPECT_GE(scorers.size(), 1u);
  EXPECT_LE(scorers.size(), ThreadPool::DefaultThreadCount() + 1);
}

}  // namespace
}  // namespace joinmi
