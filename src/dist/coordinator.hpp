// Fault-tolerant sweep coordinator.
//
// Spawns N `safelight worker` subprocesses, streams the DistPlanner's task
// rounds to them over NDJSON pipes, and survives everything a worker can do
// wrong:
//   * crash (any exit, including PR 6's injected std::_Exit(42) plug pulls)
//     -> the in-flight task is requeued with capped exponential backoff and
//        the slot is respawned; the replacement resumes from the slot's own
//        store, so progress is monotone even under high kill probability;
//   * hang (SIGSTOP, livelock) -> heartbeat silence past the timeout gets
//     the process SIGKILLed and handled like a crash;
//   * poison task (fails deterministically every time) -> after
//     max_task_retries + 1 failures the task is quarantined: the sweep
//     completes without it, the report names every lost cell, and the run
//     exits nonzero instead of pretending to be complete.
// Work-stealing: when the queue drains, an idle worker speculatively
// duplicates the oldest in-flight task (once per task). Evaluation is
// deterministic, so a duplicate's rows merge as byte-identical duplicates —
// speculation can only hide stragglers, never corrupt results.
//
// After each round the per-slot stores are folded into the canonical ones
// (dist/store_merge.hpp), and the caller replays the experiment in-process
// against the warmed cache — distributed output is therefore byte-identical
// to a single-process run by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace safelight::dist {

/// The clock every piece of coordinator liveness bookkeeping runs on —
/// heartbeat silence, retry backoff eligibility, drain/reap deadlines. It
/// must be steady: on a wall clock, one NTP step would instantly expire
/// every worker's heartbeat window and mass-kill a healthy fleet. Pinned
/// by a static_assert here and a test in tests/dist_test.cpp so a refactor
/// cannot quietly reintroduce system_clock.
using CoordinatorClock = std::chrono::steady_clock;
static_assert(CoordinatorClock::is_steady,
              "coordinator timing must use a steady clock");

struct DistOptions {
  std::size_t workers = 2;
  /// Heartbeat silence that declares a worker hung (SIGKILL + requeue).
  double heartbeat_timeout_s = 10.0;
  /// Re-dispatches of one task before it is quarantined (i.e. a task is
  /// given up after max_task_retries + 1 failures).
  std::size_t max_task_retries = 3;
  /// Requeue backoff: min(retry_cap_s, retry_base_s * 2^(failures-1)).
  double retry_base_s = 0.2;
  double retry_cap_s = 5.0;
  /// > 0 arms PR 6 fault injection *inside the workers only* (independent
  /// mode, every fault point, per-slot/generation seeds derived from
  /// chaos_seed) — the chaos harness that proves crash recovery end to end.
  double chaos_kill_prob = 0.0;
  std::uint64_t chaos_seed = 1;
  bool verbose = false;
  /// Cooperative cancel: workers are shut down, the partial round is merged
  /// (completed cells stay cached), then ExperimentCancelled is thrown.
  const std::atomic<bool>* cancel = nullptr;
};

/// One task given up on after exhausting its retries.
struct QuarantinedTask {
  std::uint64_t id = 0;
  std::string store;               // store file the cells belong to
  std::vector<std::string> cells;  // cell ids lost
  std::size_t failures = 0;
  std::string last_error;
};

struct DistSummary {
  std::size_t workers = 0;
  std::size_t tasks = 0;      // tasks planned across all rounds
  std::size_t completed = 0;  // tasks finished (done event received)
  std::size_t retries = 0;    // requeues after a failure
  std::size_t crashes = 0;    // worker deaths (incl. injected plug pulls)
  std::size_t hang_kills = 0; // heartbeat-timeout SIGKILLs
  std::size_t steals = 0;     // work-stealing speculative duplicates sent
  std::size_t rounds = 0;
  std::size_t merged_rows = 0;
  std::size_t merge_duplicates = 0;
  std::vector<QuarantinedTask> quarantined;
  double wall_seconds = 0.0;
};

enum class DistStatus {
  kComplete,     // every planned task finished; caches fully warmed
  kQuarantined,  // sweep finished minus quarantined tasks; caller must
                 // surface the loss and exit nonzero
};

/// Runs spec.experiment's declared sweeps distributed across
/// options.workers subprocesses (the binary named by SAFELIGHT_DIST_BIN,
/// else this one), warming spec.cache_dir's stores. Prints a one-line
/// machine-parsable summary ("[dist] summary: ...") on completion. Throws
/// core::ExperimentCancelled on cancel, std::runtime_error on a store-merge
/// conflict or spawn failure.
DistStatus run_distributed(const core::ExperimentSpec& spec,
                           core::ModelZoo& zoo, const DistOptions& options,
                           DistSummary& summary);

}  // namespace safelight::dist
