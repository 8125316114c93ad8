// Minimal data-parallel loop helpers.
//
// The training and evaluation hot loops (GEMM tiles, per-image inference)
// are embarrassingly parallel; parallel_for splits an index range across the
// persistent worker pool (common/thread_pool.hpp). Submitting a job to the
// parked pool costs one lock + notify, so even the thousands of small GEMMs
// issued per attack sweep can afford it; the helpers still degrade to a
// plain serial loop when the range or the host does not justify fanning out.
//
// The cell-sweep engine (core/pipeline.hpp), which runs every experiment's
// sweep, fans out with parallel_claim instead: its cells cost anywhere from
// milliseconds to seconds and each thread needs private state (a model copy
// and evaluator), so threads claim cells one at a time rather than taking
// fixed chunks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace safelight {

/// Number of worker threads used by parallel_for (>= 1). Defaults to
/// std::thread::hardware_concurrency(), overridable with SAFELIGHT_THREADS.
std::size_t worker_count();

/// Invokes fn(i) for every i in [begin, end). Chunks the range contiguously
/// across up to worker_count() pool threads when (end - begin) >=
/// min_grain * 2, otherwise runs serially on the calling thread (the
/// serial-fallback contract is covered by Parallel.SerialBelowTwoGrains).
/// Nested calls from inside a worker always run serially. fn must be
/// thread-safe across distinct i.
///
/// Exceptions thrown by fn are captured and the first one is rethrown on the
/// calling thread after the whole range was attempted.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_grain = 1);

/// Like parallel_for but hands each worker a contiguous [chunk_begin,
/// chunk_end) sub-range, which avoids per-index std::function overhead in
/// tight loops. Same serial-fallback contract: serial below min_grain * 2
/// indices, and every parallel chunk except possibly the final (tail)
/// chunk spans at least min_grain indices.
void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_grain = 1);

namespace detail {
/// Type-erased core of parallel_claim.
void parallel_claim(std::size_t count, std::size_t max_workers,
                    const std::function<std::shared_ptr<void>()>& make_state,
                    const std::function<void(void*, std::size_t)>& body);
}  // namespace detail

/// Invokes body(state, i) for every i in [0, count), where `state` is the
/// calling thread's private State. Up to `workers` threads (worker_count(),
/// capped by max_workers when it is non-zero) claim indices one at a time
/// from a shared counter, so a few costly items never leave the other
/// threads idle behind a static partition. A thread calls make_state() once,
/// only after it has claimed its first index: a thread that finds the
/// counter drained builds nothing, and at most min(workers, count) states
/// exist. Nested parallel_for calls inside body run serially.
///
/// Below 2 * workers items (or inside another parallel region) everything
/// runs inline on the calling thread with one state, where nested
/// parallel_for calls still fan out.
///
/// Exceptions thrown by body are captured and the first one is rethrown on
/// the calling thread after every other index ran; one thrown by
/// make_state stops only that thread's claiming.
template <typename State>
void parallel_claim(std::size_t count, std::size_t max_workers,
                    const std::function<std::unique_ptr<State>()>& make_state,
                    const std::function<void(State&, std::size_t)>& body) {
  detail::parallel_claim(
      count, max_workers,
      [&make_state]() -> std::shared_ptr<void> { return make_state(); },
      [&body](void* state, std::size_t i) {
        body(*static_cast<State*>(state), i);
      });
}

}  // namespace safelight
