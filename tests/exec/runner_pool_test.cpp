// RunnerPool: indexed-result determinism, exception propagation by lowest
// task index, cooperative cancellation, reuse across batches, and a
// deterministic proof that stealing actually happens (a dependency that
// deadlocks without it).
#include "exec/runner_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hpn::exec {
namespace {

TEST(RunnerPool, ZeroTasksCompletesImmediately) {
  RunnerPool pool{4};
  int calls = 0;
  EXPECT_TRUE(pool.for_each(0, [&](std::size_t) { ++calls; }));
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(pool.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(RunnerPool, MapReturnsResultsInIndexOrderRegardlessOfJobs) {
  const std::size_t n = 200;
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0u);
  for (const int jobs : {1, 2, 8}) {
    RunnerPool pool{jobs};
    const auto got = pool.map(n, [](std::size_t i) { return i; });
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

TEST(RunnerPool, EveryTaskRunsExactlyOnce) {
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  RunnerPool pool{8};
  EXPECT_TRUE(pool.for_each(n, [&](std::size_t i) { hits[i].fetch_add(1); }));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(RunnerPool, PoolIsReusableAcrossBatches) {
  RunnerPool pool{3};
  for (int round = 0; round < 5; ++round) {
    const auto r = pool.map(17, [round](std::size_t i) {
      return static_cast<int>(i) * 10 + round;
    });
    ASSERT_EQ(r.size(), 17u);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i], static_cast<int>(i) * 10 + round);
    }
  }
}

TEST(RunnerPool, FreshPoolNeverSleepsThroughItsFirstBatch) {
  // A worker that starts up while for_each() publishes its first batch must
  // not see the new generation before the tasks are queued: it would go
  // back to sleep and the batch would never finish (a hang, caught by the
  // ctest timeout). Seeding the queues after the generation bump hung about
  // one run in three of this loop.
  for (int i = 0; i < 20000; ++i) {
    RunnerPool pool{1};
    int calls = 0;
    ASSERT_TRUE(pool.for_each(1, [&](std::size_t) { ++calls; }));
    ASSERT_EQ(calls, 1);
  }
}

TEST(RunnerPool, MoreJobsThanTasks) {
  RunnerPool pool{8};
  const auto r = pool.map(3, [](std::size_t i) { return i * i; });
  EXPECT_EQ(r, (std::vector<std::size_t>{0, 1, 4}));
}

TEST(RunnerPool, ExceptionPropagatesToCaller) {
  RunnerPool pool{4};
  EXPECT_THROW(
      pool.for_each(50,
                    [](std::size_t i) {
                      if (i == 17) throw std::runtime_error{"task 17 failed"};
                    }),
      std::runtime_error);
}

TEST(RunnerPool, LowestFailingIndexWinsWithSerialExecution) {
  // jobs=1 runs tasks in ascending index order, so both throwers run and
  // the recorded exception must be the lower index.
  RunnerPool pool{1};
  try {
    pool.for_each(20, [](std::size_t i) {
      if (i == 5) throw std::runtime_error{"five"};
      if (i == 11) throw std::runtime_error{"eleven"};
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "five");
  }
}

TEST(RunnerPool, ExceptionCancelsRemainderOfBatch) {
  // Serial pool: task 0 throws, so tasks 1..N-1 are skipped, and the pool
  // still settles (no hang) before rethrowing.
  RunnerPool pool{1};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each(100,
                             [&](std::size_t i) {
                               ++ran;
                               if (i == 0) throw std::runtime_error{"boom"};
                             }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 1);
  // The pool recovers: the next batch runs normally.
  EXPECT_TRUE(pool.for_each(10, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 11);
}

TEST(RunnerPool, CancelSkipsUnstartedTasks) {
  RunnerPool pool{1};
  std::atomic<int> ran{0};
  const bool complete = pool.for_each(100, [&](std::size_t) {
    ++ran;
    pool.cancel();
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(ran.load(), 1);
  // cancel() is batch-scoped: the next batch starts fresh.
  EXPECT_TRUE(pool.for_each(5, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 6);
}

TEST(RunnerPool, MapThrowsWhenBatchWasCancelled) {
  RunnerPool pool{1};
  EXPECT_THROW(pool.map(10,
                        [&](std::size_t i) {
                          pool.cancel();
                          return i;
                        }),
               std::runtime_error);
}

TEST(RunnerPool, IdleWorkersStealFromBusyQueues) {
  // Round-robin seeding puts tasks 0 and 2 in worker 0's deque. Task 0
  // blocks until task 2 has run — which can only happen if another worker
  // steals task 2. No stealing => this test times out instead of passing.
  RunnerPool pool{2};
  std::mutex mu;
  std::condition_variable cv;
  bool task2_done = false;
  bool unblocked_in_time = false;
  pool.for_each(4, [&](std::size_t i) {
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
