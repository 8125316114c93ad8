// Stress tests for the persistent worker pool behind parallel_for, and for
// parallel_claim, the work-claiming fan-out of the sweep engines.
//
// The pool instances here are constructed with explicit thread counts, so
// these tests exercise real concurrency even when the host (or
// SAFELIGHT_THREADS) only grants one worker to the global pool.
// parallel_claim always runs on the global pool; its fan-out tests skip on
// a single-worker host, where every call takes the inline path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"

namespace safelight {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t c) { hits[c]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroChunksIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroThreadsRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  pool.run(ids.size(), [&](std::size_t c) { ids[c] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, DistributesAcrossThreads) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  // Chunks that block briefly force multiple threads to participate.
  pool.run(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.run(32, [&](std::size_t c) {
      if (c == 7) throw std::runtime_error("boom");
      completed++;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Every non-throwing chunk still ran (the job completes before rethrow).
  EXPECT_EQ(completed.load(), 31);
}

TEST(ThreadPool, SurvivesManySubmissions) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 10000; ++round) {
    pool.run(4, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 40000u);
}

TEST(ThreadPool, ConcurrentSubmittersInterleaveSafely) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        pool.run(8, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4u * 200u * 8u);
}

TEST(ThreadPool, NestedParallelForInsidePoolWorkDegradesSerially) {
  // parallel_for inside a pool-executed chunk must run serially rather than
  // resubmitting to the (possibly same) pool — no deadlock, exact coverage.
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 10, [&](std::size_t) { count++; }, 1);
  });
  EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPool, GlobalPoolMatchesWorkerCount) {
  EXPECT_EQ(ThreadPool::global().thread_count(), worker_count() - 1);
}

// ------------------------------------------------------------ parallel_claim

/// Per-thread state of the parallel_claim tests: remembers the thread that
/// built it and how many items it ran.
struct ClaimState {
  std::thread::id owner = std::this_thread::get_id();
  std::size_t items = 0;
};

/// Records every state parallel_claim builds (they die with their thread's
/// claim loop, so the log keeps copies of what they saw).
class ClaimLog {
 public:
  std::function<std::unique_ptr<ClaimState>()> factory() {
    return [this] {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++built_;
      return std::make_unique<ClaimState>();
    };
  }

  /// Called by the body; checks the state belongs to the running thread.
  void ran(ClaimState& state) {
    EXPECT_EQ(state.owner, std::this_thread::get_id());
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state.items++ == 0) owners_.insert(state.owner);
  }

  std::size_t built() const { return built_; }
  /// Distinct threads that ran at least one item.
  std::size_t running_threads() const { return owners_.size(); }

 private:
  std::mutex mutex_;
  std::size_t built_ = 0;
  std::set<std::thread::id> owners_;
};

TEST(ParallelClaim, RunsEveryIndexExactlyOnce) {
  for (const std::size_t count : {0u, 1u, 3u, 7u, 64u, 257u}) {
    for (const std::size_t max_workers : {0u, 1u, 2u}) {
      std::vector<std::atomic<int>> hits(count);
      ClaimLog log;
      parallel_claim<ClaimState>(count, max_workers, log.factory(),
                                 [&](ClaimState& state, std::size_t i) {
                                   log.ran(state);
                                   hits[i]++;
                                 });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
      }
      if (count == 0) {
        EXPECT_EQ(log.built(), 0u);
      }
    }
  }
}

TEST(ParallelClaim, BuildsAtMostOneStatePerParticipatingThread) {
  for (const std::size_t count : {3u, 16u, 64u, 257u}) {
    for (const std::size_t max_workers : {0u, 1u, 2u}) {
      const std::size_t workers =
          max_workers == 0 ? worker_count()
                           : std::min(worker_count(), max_workers);
      ClaimLog log;
      parallel_claim<ClaimState>(count, max_workers, log.factory(),
                                 [&](ClaimState& state, std::size_t) {
                                   // Long enough that several threads join.
                                   std::this_thread::sleep_for(
                                       std::chrono::microseconds(50));
                                   log.ran(state);
                                 });
      EXPECT_GE(log.built(), 1u);
      EXPECT_LE(log.built(), std::min(workers, count));
      // Every state was built by a thread that then ran items with it.
      EXPECT_EQ(log.built(), log.running_threads())
          << "count " << count << " max_workers " << max_workers;
      if (count < workers * 2) {
        EXPECT_EQ(log.built(), 1u);  // the inline path
      }
    }
  }
}

TEST(ParallelClaim, ThreadThatClaimsNothingBuildsNothing) {
  ThreadPool& pool = ThreadPool::global();
  if (pool.thread_count() == 0) GTEST_SKIP() << "needs >= 2 worker threads";
  // Park every pool worker inside another submitter's job. The claim job's
  // tokens then wait in the queue while the calling thread drains every
  // item and every chunk alone: the chunks it takes after the counter ran
  // dry, and the tokens the workers pick up later, must build no state.
  const std::size_t parked_threads = pool.thread_count() + 1;
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    pool.run(parked_threads, [&](std::size_t) {
      parked++;
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (parked.load() < parked_threads) std::this_thread::yield();

  const std::size_t count = 4 * worker_count();  // takes the fan-out path
  std::vector<std::atomic<int>> hits(count);
  ClaimLog log;
  parallel_claim<ClaimState>(count, 0, log.factory(),
                             [&](ClaimState& state, std::size_t i) {
                               log.ran(state);
                               hits[i]++;
                             });
  release = true;
  blocker.join();

  EXPECT_EQ(log.built(), 1u);
  EXPECT_EQ(log.running_threads(), 1u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelClaim, RethrowsFirstExceptionAfterOtherIndicesRan) {
  for (const std::size_t count : {3u, 64u}) {  // inline and fan-out paths
    std::atomic<std::size_t> completed{0};
    try {
      parallel_claim<ClaimState>(
          count, 0, [] { return std::make_unique<ClaimState>(); },
          [&](ClaimState&, std::size_t i) {
            if (i == 1) throw std::runtime_error("boom");
            completed++;
          });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(completed.load(), count - 1) << "count " << count;
  }
}

TEST(ParallelClaim, NestedParallelForInsideFanOutStaysSerial) {
  if (worker_count() < 2) GTEST_SKIP() << "needs >= 2 worker threads";
  const std::size_t count = 4 * worker_count();  // takes the fan-out path
  std::atomic<std::size_t> nested_off_thread{0};
  std::atomic<std::size_t> nested_calls{0};
  parallel_claim<ClaimState>(
      count, 0, [] { return std::make_unique<ClaimState>(); },
      [&](ClaimState& state, std::size_t) {
        parallel_for(0, 64, [&](std::size_t) {
          nested_calls++;
          if (std::this_thread::get_id() != state.owner) nested_off_thread++;
        });
      });
  EXPECT_EQ(nested_calls.load(), count * 64);
  EXPECT_EQ(nested_off_thread.load(), 0u);
}

}  // namespace
}  // namespace safelight
