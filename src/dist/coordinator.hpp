// Fault-tolerant fleet of sweep workers: the evaluate stage of every
// registry run under `safelight run --workers N`.
//
// cmd_run builds one Fleet per invocation and installs Fleet::evaluate as
// the RunContext evaluate hook (core/experiment.hpp), so the registry's
// ordinary run loop prepares each declared sweep in the coordinator
// (training, store open, pending cells) and hands the fleet the pending
// cells of all of a run's sweeps at once. The fleet chunks them into
// tasks, spawns its N `safelight worker` subprocesses on the first task,
// streams the tasks to them over NDJSON pipes and appends the rows they
// send into the prepared stores; the registry then collects and assembles
// exactly as in process, so distributed output is byte-identical to a
// single-process run by construction. It survives everything a worker can
// do wrong:
//   * crash (any exit, including the injected std::_Exit(42) plug pulls)
//     -> the in-flight task is requeued with capped exponential backoff,
//        holding only the cells whose rows never arrived, and the slot is
//        respawned; a retry on any slot resumes where the dead worker
//        stopped, so progress is monotone even under high kill probability;
//        backoff and quarantine count only consecutive failed attempts
//        that delivered no rows (a cell's rows arriving resets the count);
//   * hang (SIGSTOP, livelock) -> heartbeat silence past the timeout gets
//     the process SIGKILLed and handled like a crash; liveness restarts at
//     every hand-off, since the coordinator trains between them;
//   * poison task (fails deterministically every time) -> after
//     max_task_retries + 1 such failures the task is quarantined: the
//     hand-off completes without it and throws QuarantinedError naming
//     every lost cell, and the CLI skips that model and exits 3 instead of
//     pretending to be complete.
// Each task has exactly one owner at a time: the slot it was dispatched
// to. A slow worker is simply waited for; only one of the failures above
// puts its task back in the queue.
//
// The coordinator is the only writer of the canonical stores. A worker
// sends each evaluated cell's rows as a `cell` event (dist/protocol.hpp);
// the fleet accepts only the declared keys of an outstanding cell of the
// sending slot's task and puts them into the store instance the prepare
// stage opened; ResultStore::put skips a key already stored with the same
// bytes and makes one stored with different bytes a hard error.
//
// A worker is this very executable (/proc/self/exe), configured by its
// command line alone: the coordinator passes its resolved --zoo, --threads,
// --backend, --heartbeat-timeout, --trace and --metrics (plus the --fault-*
// flags under chaos) as flags, which win over any SAFELIGHT_* value the
// worker inherits, so its environment passes through unchanged. Same
// binary, same --backend: a worker's kernel numerics are the coordinator's
// by construction, so no handshake checks them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
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
  /// given up after max_task_retries + 1 failed attempts in a row that
  /// delivered no rows).
  std::size_t max_task_retries = 3;
  /// > 0 arms fault injection *inside the workers only* (independent mode,
  /// every fault point, per-slot/generation seeds derived from chaos_seed)
  /// — the chaos harness that proves crash recovery end to end.
  double chaos_kill_prob = 0.0;
  std::uint64_t chaos_seed = 1;
  bool verbose = false;
  /// Cooperative cancel: workers are shut down (rows still in flight are
  /// appended, so completed cells stay cached), then ExperimentCancelled is
  /// thrown.
  const std::atomic<bool>* cancel = nullptr;
};

/// One task given up on after exhausting its retries.
struct QuarantinedTask {
  std::uint64_t id = 0;
  std::string store;               // store file the cells belong to
  std::vector<std::string> cells;  // ids of the cells whose rows never came
  std::size_t failures = 0;  // consecutive attempts that delivered no rows
  std::string last_error;
};

/// Thrown by Fleet::evaluate once every task of the hand-off finished or
/// was quarantined, when any was: the run's stores lack those cells.
class QuarantinedError : public std::runtime_error {
 public:
  explicit QuarantinedError(std::vector<QuarantinedTask> lost);
  std::vector<QuarantinedTask> tasks;
};

class Coordinator;  // dist/coordinator.cpp

/// options.workers `safelight worker` subprocesses of this executable
/// serving one CLI invocation. They are spawned on the first task and live
/// until finish() or destruction (which kills any still running).
class Fleet {
 public:
  Fleet(core::ModelZoo& zoo, const DistOptions& options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The RunContext evaluate hook: chunks the pending cells of all of
  /// `sweeps` into tasks of clamp(pending / (workers * 4), 1, 32) cells —
  /// a lost task forfeits little work, per-task overhead stays amortized —
  /// runs them on the workers and appends their rows into the prepared
  /// stores. `setup` is unused: workers resolve it from the shipped spec.
  /// Throws QuarantinedError (see above), core::ExperimentCancelled on
  /// cancel, std::runtime_error on refused worker rows (a store conflict,
  /// an undeclared key or cell) or a spawn failure.
  void evaluate(const core::ExperimentSpec& spec,
                const core::ExperimentSetup& setup,
                const std::vector<core::PreparedSweep>& sweeps);

  /// Shuts the workers down and prints the one machine-parsable summary
  /// line of the invocation ("[dist] summary: workers=N tasks=N ...").
  void finish();

 private:
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace safelight::dist
