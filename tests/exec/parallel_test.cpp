// parallel_for / parallel_map: indexed-result determinism, the caller's
// thread as the serial worker, exception propagation by lowest task index,
// and a deterministic proof that a blocked task never holds up a later
// index (a dependency that deadlocks unless another thread takes it). The
// suite keeps the name of the RunnerPool these calls replaced, so its test
// ids carry over.
#include "exec/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hpn::exec {
namespace {

TEST(RunnerPool, ZeroTasksCompletesImmediately) {
  int calls = 0;
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(parallel_map(4, 0, [](std::size_t i) { return i; }).empty());
}

TEST(RunnerPool, MapReturnsResultsInIndexOrderRegardlessOfJobs) {
  const std::size_t n = 200;
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0u);
  for (const int jobs : {1, 2, 8}) {
    const auto got = parallel_map(jobs, n, [](std::size_t i) { return i; });
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

TEST(RunnerPool, EveryTaskRunsExactlyOnce) {
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(8, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(RunnerPool, SerialRunsOnCallerThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(10);
  parallel_for(1, ran_on.size(),
               [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(RunnerPool, MoreJobsThanTasks) {
  const auto r = parallel_map(8, 3, [](std::size_t i) { return i * i; });
  EXPECT_EQ(r, (std::vector<std::size_t>{0, 1, 4}));
}

TEST(RunnerPool, ExceptionPropagatesToCaller) {
  EXPECT_THROW(parallel_for(4, 50,
                            [](std::size_t i) {
                              if (i == 17) throw std::runtime_error{"task 17 failed"};
                            }),
               std::runtime_error);
}

TEST(RunnerPool, LowestFailingIndexWinsWithSerialExecution) {
  // jobs=1 runs tasks in ascending index order, so only the lower thrower
  // runs and its exception is the one rethrown.
  try {
    parallel_for(1, 20, [](std::size_t i) {
      if (i == 5) throw std::runtime_error{"five"};
      if (i == 11) throw std::runtime_error{"eleven"};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "five");
  }
}

TEST(RunnerPool, LowestFailingIndexWinsAtFourJobs) {
  // Task 3 throws at once while task 1 is still running; task 1 throws
  // later. Task 1 had started (indices start in ascending order), so its
  // exception is the one rethrown, as at jobs=1.
  try {
    parallel_for(4, 20, [](std::size_t i) {
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error{"one"};
      }
      if (i == 3) throw std::runtime_error{"three"};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "one");
  }
}

TEST(RunnerPool, ExceptionCancelsRemainderOfBatch) {
  // Serial: task 3 throws, so tasks 4..N-1 never start, and the call
  // returns (no hang) before rethrowing.
  std::vector<std::size_t> started;
  EXPECT_THROW(parallel_for(1, 100,
                            [&](std::size_t i) {
                              started.push_back(i);
                              if (i == 3) throw std::runtime_error{"boom"};
                            }),
               std::runtime_error);
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(RunnerPool, BlockedTaskLetsLaterIndexRun) {
  // Task 0 blocks until task 2 has run, which can only happen if another
  // thread takes index 2 while task 0 waits. If it never does, this test
  // fails after 30 s instead of passing.
  std::mutex mu;
  std::condition_variable cv;
  bool task2_done = false;
  bool unblocked_in_time = false;
  parallel_for(2, 4, [&](std::size_t i) {
    if (i == 0) {
      std::unique_lock<std::mutex> lk(mu);
      unblocked_in_time =
          cv.wait_for(lk, std::chrono::seconds(30), [&] { return task2_done; });
    } else if (i == 2) {
      const std::lock_guard<std::mutex> lk(mu);
      task2_done = true;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(unblocked_in_time);
}

TEST(RunnerPool, ParallelMapConvenience) {
  const auto r = parallel_map(4, 8, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(r, (std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace hpn::exec
