#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const int n = 1000;
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(n, [&](int i) { visits[static_cast<size_t>(i)].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelForTest, HandlesZeroAndNegativeCounts) {
  int calls = 0;
  ParallelFor(0, [&](int) { ++calls; });
  ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingleThreadIsSequential) {
  const ScopedThreads scope(1);
  std::vector<int> order;
  ParallelFor(10, [&](int i) { order.push_back(i); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, PropagatesExceptions) {
  const ScopedThreads scope(4);
  EXPECT_THROW(ParallelFor(16,
                           [](int i) {
                             if (i == 7) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, SumMatchesAcrossThreadCounts) {
  const int n = 500;
  for (const int threads : {1, 2, 4, 8}) {
    const ScopedThreads scope(threads);
    std::atomic<long> sum{0};
    ParallelFor(n, [&](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2) << threads;
  }
}

TEST(ParallelForTest, RethrowsTheFirstCapturedError) {
  // Index 0 throws immediately; index 15 throws only after a generous
  // delay, so the error captured first is deterministic in practice.
  const ScopedThreads scope(2);
  try {
    ParallelFor(16, [](int i) {
      if (i == 0) {
        throw std::runtime_error("first");
      }
      if (i == 15) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        throw std::runtime_error("late");
      }
    });
    FAIL() << "expected ParallelFor to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ParallelForTest, ExceptionSkipsUnclaimedIterations) {
  // After the failure is captured the stop flag keeps workers from
  // draining the remaining ~50M iterations, so far fewer than `count`
  // bodies run. (Timing-dependent in the exact number, but the gap is
  // enormous: a handful versus fifty million.)
  const int count = 50'000'000;
  const ScopedThreads scope(4);
  std::atomic<long> executed{0};
  EXPECT_THROW(ParallelFor(count,
                           [&](int i) {
                             executed.fetch_add(1);
                             if (i == 0) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
  EXPECT_LT(executed.load(), static_cast<long>(count));
}

TEST(ParallelForTest, ClampsThreadCountToWorkItemCount) {
  // Requesting far more threads than work items must not spawn idle
  // workers: at most `count` distinct threads may execute bodies.
  const int count = 4;
  const ScopedThreads scope(64);
  std::mutex mutex;
  std::set<std::thread::id> thread_ids;
  ParallelFor(count, [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::lock_guard<std::mutex> lock(mutex);
    thread_ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(thread_ids.size(), static_cast<size_t>(count));
  EXPECT_GE(thread_ids.size(), 1u);
}

// LEOSIM_THREADS takes a decimal integer in [0, 1024]; anything else is
// rejected before a body runs, not read as "all cores". Unset, empty and
// "0" mean hardware concurrency.
TEST(ParallelForTest, RejectsABadThreadSetting) {
  for (const char* bad : {"abc", "-1", "1025", "4x", " 4", "+4", "2.5", "99999999999"}) {
    const ScopedThreads scope(bad);
    int calls = 0;
    EXPECT_THROW(ParallelFor(1, [&](int) { ++calls; }), std::invalid_argument) << bad;
    EXPECT_EQ(calls, 0) << bad;
    EXPECT_THROW(DefaultWorkerCount(), std::invalid_argument) << bad;
  }
  const int hardware = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const char* automatic : {"", "0"}) {
    const ScopedThreads scope(automatic);
    EXPECT_EQ(DefaultWorkerCount(), hardware) << '"' << automatic << '"';
  }
  const ScopedThreads scope("1024");
  EXPECT_EQ(DefaultWorkerCount(), 1024);
}

TEST(ParallelForTest, ZeroCountIsNoOpForAnyThreadCount) {
  for (const int threads : {0, 1, 8, 64}) {
    const ScopedThreads scope(threads);
    std::atomic<int> calls{0};
    ParallelFor(0, [&](int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << threads;
  }
}

TEST(ParallelForWorkersTest, VisitsEveryIndexWithDenseWorkerIds) {
  const int n = 200;
  const int threads = 4;
  const ScopedThreads scope(threads);
  std::vector<std::atomic<int>> visits(n);
  std::mutex mutex;
  std::set<int> workers_seen;
  ParallelForWorkers(n, [&](int worker, int i) {
    visits[static_cast<size_t>(i)].fetch_add(1);
    const std::lock_guard<std::mutex> lock(mutex);
    workers_seen.insert(worker);
  });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << i;
  }
  // Worker ids are dense in [0, threads) — the contract per-worker
  // scratch arrays rely on.
  EXPECT_GE(workers_seen.size(), 1u);
  for (const int w : workers_seen) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, threads);
  }
}

TEST(ParallelForWorkersTest, SingleWorkerScratchIsSafe) {
  // With one thread the same worker id serves every index, so non-atomic
  // per-worker state is safe — the pattern the studies use.
  const ScopedThreads scope(1);
  std::vector<int> scratch(1, 0);
  ParallelForWorkers(100,
                     [&](int worker, int) { ++scratch[static_cast<size_t>(worker)]; });
  EXPECT_EQ(scratch[0], 100);
}

}  // namespace
}  // namespace leosim::core
