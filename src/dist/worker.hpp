// Worker side of the distributed sweep: one process, one task at a time.
//
// A worker is the `safelight worker` subcommand, spawned by the
// coordinator with its stdin/stdout turned into the NDJSON protocol pipes
// (stderr goes to a per-slot log file). Its command line is its whole
// configuration: --zoo, --threads, --backend, --heartbeat-timeout,
// --trace/--metrics (which arm buffering for the pipe, never a file) and,
// under --chaos, the --fault-* flags; the CLI parses them with the flag
// parser every command uses. Each task names an experiment, a spec and one
// of the sweeps the experiment declares (core::ExperimentInfo::sweeps); the
// worker rebuilds that declaration, evaluates exactly the task's cells
// through its own evaluate and sends each cell's rows to the coordinator
// (core::evaluate_cell_rows) under exactly the keys and store file name
// the in-process run uses. One worker serves a whole CLI invocation, so it
// keeps the declarations and deployments of one spec document at a time:
// a task naming another document replaces them. A worker writes no
// durable file: the coordinator is the only writer of the canonical
// stores, and a retried task holds only the cells whose rows it never
// received. Behind each cell's rows it ships the delta of its metrics
// registry, and after each task its buffered spans, so a crash loses only
// the counts of a cell its retry evaluates again. Under --chaos the fault
// point `dist.worker.cell`, just before a cell's rows are sent, is where
// the plug is pulled.
//
// A heartbeat thread writes {"type":"heartbeat"} every interval (a quarter
// of the --heartbeat-timeout, clamped to [0.02, 1] s) so the coordinator can
// distinguish "busy evaluating" from "hung": SIGSTOP (or a livelock)
// silences the heartbeat, and the coordinator SIGKILLs after its timeout.
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
// These are the only getenv calls outside common/config.cpp (check.sh
// enforces it).
#pragma once

#include <atomic>
#include <string>

namespace safelight::dist {

struct WorkerOptions {
  std::string zoo_dir;  // shared model zoo (entries pre-trained)
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
