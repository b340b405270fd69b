#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>

namespace hpn::exec {

void parallel_for(int jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  const auto work = [&] {
    while (!stop) {
      const std::size_t i = next++;
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        stop = true;
      }
    }
  };

  // Results do not depend on the thread count, so a thread that fails to
  // start only leaves its share to the others.
  const std::size_t threads_wanted =
      std::min(static_cast<std::size_t>(std::max(1, jobs)), count);
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < threads_wanted; ++t) {
    try {
      threads.emplace_back(work);
    } catch (const std::system_error&) {
      break;
    }
  }
  work();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace hpn::exec
