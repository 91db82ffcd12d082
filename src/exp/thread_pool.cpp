#include "exp/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profile.h"

namespace dcs::exp {

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = std::min(resolve_threads(threads), count);

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::size_t first_error_index = count;
  std::exception_ptr first_error;

  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&drain, w] {
      obs::Profiler::set_thread_lane(static_cast<int>(w));
      drain();
    });
  }
  drain();
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dcs::exp
