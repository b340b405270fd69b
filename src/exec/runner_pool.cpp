#include "exec/runner_pool.h"

#include <algorithm>
#include <limits>

namespace hpn::exec {

RunnerPool::RunnerPool(int jobs) : jobs_(std::max(1, jobs)) {
  queues_.reserve(static_cast<std::size_t>(jobs_));
  for (int w = 0; w < jobs_; ++w) queues_.push_back(std::make_unique<WorkQueue>());
  threads_.reserve(static_cast<std::size_t>(jobs_));
  for (int w = 0; w < jobs_; ++w) threads_.emplace_back(&RunnerPool::worker_loop, this, w);
}

RunnerPool::~RunnerPool() {
  {
    const std::lock_guard<std::mutex> lk(batch_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool RunnerPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& fn) {
  const std::lock_guard<std::mutex> run_lock(run_mu_);
  if (count == 0) return true;

  {
    const std::lock_guard<std::mutex> lk(batch_mu_);
    first_error_index_ = std::numeric_limits<std::size_t>::max();
    first_error_ = nullptr;
    skipped_.store(0, std::memory_order_relaxed);
    cancel_.store(false, std::memory_order_relaxed);
    unfinished_.store(count, std::memory_order_relaxed);
    // Release-publish the callable before any task becomes acquirable.
    batch_fn_.store(&fn, std::memory_order_release);

    // Seed the queues round-robin *after* the batch state is live (a worker
    // tailing out of the previous batch may legitimately acquire and run
    // these tasks before the notify below) but *before* bumping the
    // generation: a worker that sees the new generation with empty queues
    // goes back to sleep on a satisfied generation and never wakes again.
    for (int w = 0; w < jobs_; ++w) {
      WorkQueue& q = *queues_[static_cast<std::size_t>(w)];
      const std::lock_guard<std::mutex> qlk(q.mu);
      for (std::size_t i = static_cast<std::size_t>(w); i < count;
           i += static_cast<std::size_t>(jobs_)) {
        q.tasks.push_back(i);
      }
    }
    ++batch_gen_;
  }
  work_cv_.notify_all();

  {
    std::unique_lock<std::mutex> lk(batch_mu_);
    done_cv_.wait(lk, [&] { return unfinished_.load(std::memory_order_acquire) == 0; });
    batch_fn_.store(nullptr, std::memory_order_release);
  }

  if (first_error_) std::rethrow_exception(first_error_);
  return skipped_.load(std::memory_order_relaxed) == 0;
}

bool RunnerPool::acquire(int self, std::size_t& out) {
  {
    WorkQueue& own = *queues_[static_cast<std::size_t>(self)];
    const std::lock_guard<std::mutex> lk(own.mu);
    if (!own.tasks.empty()) {
      out = own.tasks.front();
      own.tasks.pop_front();
      return true;
    }
  }
  for (int k = 1; k < jobs_; ++k) {
    WorkQueue& victim = *queues_[static_cast<std::size_t>((self + k) % jobs_)];
    const std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.tasks.empty()) {
      out = victim.tasks.back();
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void RunnerPool::finish_one() {
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Take the lock so the notify cannot slip between the waiter's
    // predicate check and its wait.
    const std::lock_guard<std::mutex> lk(batch_mu_);
    done_cv_.notify_all();
  }
}

void RunnerPool::worker_loop(int self) {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(batch_mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || batch_gen_ != seen_gen; });
      if (shutdown_) return;
      seen_gen = batch_gen_;
    }
    std::size_t task = 0;
    while (acquire(self, task)) {
      // Load per task: a worker that drained into the *next* batch must use
      // that batch's callable, not a stale pointer.
      const auto* fn = batch_fn_.load(std::memory_order_acquire);
      if (fn == nullptr || cancel_.load(std::memory_order_relaxed)) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
        finish_one();
        continue;
      }
      try {
        (*fn)(task);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lk(err_mu_);
          if (task < first_error_index_) {
            first_error_index_ = task;
            first_error_ = std::current_exception();
          }
        }
        cancel_.store(true, std::memory_order_relaxed);
      }
      finish_one();
    }
  }
}

}  // namespace hpn::exec
