// The `safelight` command-line interface.
//
// One binary fronts every registered experiment (core/experiment.hpp):
//
//   safelight list                     registered experiments
//   safelight run <experiment> [...]   one experiment, paper models
//   safelight run-all [...]            every experiment, one process,
//                                      shared zoo/caches
//   safelight worker --store-dir <d> [...]
//                                      internal: distributed sweep worker
//                                      (spawned by 'run --workers N', which
//                                      passes every setting as a flag)
//
// Flags (CLI flag > SAFELIGHT_* env > default; see common/config.hpp):
//   --model <cnn1|resnet18|vgg16v>   restrict to one model (default: all 3)
//   --scale <tiny|default|full>      experiment scale
//   --seeds <N>                      placements per grid cell
//   --base-seed <N>                  base placement seed
//   --out <dir>                      CSV/JSON output directory
//   --zoo <dir>                      trained-model + result-store cache
//   --threads <N>                    worker threads
//   --json                           also write per-(experiment, model)
//                                    JSON documents
//   --verbose                        per-scenario progress output
//   --workers <N>                    shard sweeps across N worker
//                                    subprocesses (0 = in-process)
//   --heartbeat-timeout <s>          worker silence before kill + retry
//   --max-task-retries <N>           failures before a task is quarantined
//   --chaos <p>                      arm fault injection inside workers
//                                    with per-write crash probability p
//                                    (a usage error without --workers)
//   --fault-mode <m>                 fault injection: none | independent |
//                                    run_length | uniform_over_run
//   --fault-point <name>             restrict injection to one named point
//   --fault-n <N>                    run length for run_length /
//                                    uniform_over_run
//   --fault-prob <p>                 per-hit crash probability (independent)
//   --fault-seed <N>                 seed of the injection draws
#pragma once

#include <string>
#include <vector>

namespace safelight::cli {

/// Runs the CLI on `args` (argv without the program name). Returns the
/// process exit code: 0 on success, 2 on a usage error, 1 on a runtime
/// failure, 3 when a distributed sweep completed minus quarantined tasks,
/// 130 when the run was cancelled (SIGINT/SIGTERM or request_cancel).
/// A fault-armed run that pulls the plug _Exits with
/// fault::kPlugPulledExitCode (42) instead of returning. Installs config
/// overrides from flags; errors go to stderr. SIGINT and SIGTERM request
/// cooperative cancellation for the duration of the call (handlers
/// restored on return).
int run(const std::vector<std::string>& args);

/// Test seam: flags the next (or current) run() for cooperative
/// cancellation, exactly as SIGINT would. run() clears the flag on return.
void request_cancel();

}  // namespace safelight::cli
