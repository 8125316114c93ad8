// Worker side of the distributed sweep: one process, one task at a time.
//
// A worker is the `safelight worker` subcommand, spawned by the
// coordinator with its stdin/stdout turned into the NDJSON protocol pipes
// (stderr goes to a per-slot log file). Each task names an experiment, a
// spec and one of the sweeps the experiment declares
// (core::ExperimentInfo::sweeps); the worker rebuilds that declaration and
// fills exactly the task's cells through its own evaluate, appending to its
// *own* store directory — never to the canonical stores — under exactly
// the keys and store file name the in-process run uses. Incremental resume
// comes for free: a respawned worker (same slot, next generation) reopens
// its slot's stores, takes over the crashed predecessor's stale writer
// locks, and skips every cell already durable there.
//
// A heartbeat thread writes {"type":"heartbeat"} every interval so the
// coordinator can distinguish "busy evaluating" from "hung": SIGSTOP (or a
// livelock) silences the heartbeat, and the coordinator SIGKILLs after its
// timeout.
//
// Test seams (environment variables, only read here):
//   SAFELIGHT_DIST_POISON      cell-id substring; evaluating a matching
//                              cell _Exits(41) — a deterministic "poison
//                              task" that fails on every retry.
//   SAFELIGHT_DIST_HANG        cell-id substring; a matching cell raises
//                              SIGSTOP instead of evaluating.
//   SAFELIGHT_DIST_HANG_ONCE   path of a sentinel file; when set, only the
//                              process that O_EXCL-creates it hangs, so a
//                              reassigned task completes on the next worker.
#pragma once

#include <atomic>

#include <string>

namespace safelight::dist {

struct WorkerOptions {
  std::string zoo_dir;    // shared model zoo (entries pre-trained)
  std::string store_dir;  // this worker's private store directory
  int protocol_in = 0;    // fd carrying coordinator commands
  int protocol_out = 1;   // fd carrying worker events
  double heartbeat_interval_s = 1.0;
  /// Cooperative cancellation (SIGINT/SIGTERM): checked between cells;
  /// throws core::ExperimentCancelled so the CLI exits 130.
  const std::atomic<bool>* cancel = nullptr;
};

/// Runs the task loop until shutdown or EOF on `protocol_in`; returns the
/// process exit code (0). Task-level failures are reported as fatal events
/// and do not kill the worker.
int run_worker(const WorkerOptions& options);

}  // namespace safelight::dist
