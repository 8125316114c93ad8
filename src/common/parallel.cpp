#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "common/config.hpp"
#include "common/thread_pool.hpp"

namespace safelight {

std::size_t worker_count() {
  // Resolved through config (CLI flag > SAFELIGHT_THREADS > hardware
  // concurrency) and cached on first use, so the CLI must install its
  // overrides before the first parallel region runs.
  static const std::size_t cached = config::threads();
  return cached;
}

namespace {
// Set while executing inside a parallel region; nested parallel_for calls
// then degrade to serial loops instead of oversubscribing the host.
thread_local bool g_in_parallel_region = false;

/// Marks the current thread as inside a parallel region for its lifetime.
/// The submitting thread drains work too, so it is marked like the pool
/// workers.
class RegionGuard {
 public:
  RegionGuard() : was_inside_(g_in_parallel_region) {
    g_in_parallel_region = true;
  }
  ~RegionGuard() { g_in_parallel_region = was_inside_; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool was_inside_;
};
}  // namespace

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_grain) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t grain = std::max<std::size_t>(1, min_grain);
  // Serial fallback, exactly as documented: below two grains there is
  // nothing worth splitting. (total / grain avoids overflow of grain * 2.)
  std::size_t workers = std::min(worker_count(), total / grain);
  if (g_in_parallel_region || workers <= 1) {
    fn(begin, end);
    return;
  }

  const std::size_t chunk = (total + workers - 1) / workers;
  const std::size_t chunk_count = (total + chunk - 1) / chunk;
  ThreadPool::global().run(chunk_count, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    const RegionGuard region;
    fn(lo, hi);  // exceptions are captured per chunk by the pool
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      min_grain);
}

void detail::parallel_claim(
    std::size_t count, std::size_t max_workers,
    const std::function<std::shared_ptr<void>()>& make_state,
    const std::function<void(void*, std::size_t)>& body) {
  if (count == 0) return;
  std::size_t workers = worker_count();
  if (max_workers > 0) workers = std::min(workers, max_workers);

  std::mutex error_mutex;
  std::exception_ptr error;  // first failure of body (guarded)
  const auto run_item = [&](void* state, std::size_t i) {
    try {
      body(state, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  if (g_in_parallel_region || workers <= 1 || count < workers * 2) {
    // Too few items to keep a fan-out busy: run inline, where the nested
    // per-image loops still parallelize.
    const std::shared_ptr<void> state = make_state();
    for (std::size_t i = 0; i < count; ++i) run_item(state.get(), i);
  } else {
    std::atomic<std::size_t> next{0};
    // One pool chunk per thread; a chunk claims items until none remain.
    // A chunk that starts after the counter drained (a late worker, or the
    // submitting thread taking a second chunk) returns before make_state.
    ThreadPool::global().run(workers, [&](std::size_t) {
      std::size_t i = next++;
      if (i >= count) return;
      const RegionGuard region;
      const std::shared_ptr<void> state = make_state();
      do {
        run_item(state.get(), i);
      } while ((i = next++) < count);
    });
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace safelight
