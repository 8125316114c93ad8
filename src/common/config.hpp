// Unified run-time configuration (the SAFELIGHT_* knobs).
//
// Every sweep entry point — the `safelight` CLI, the library API, the
// tests — resolves its knobs through this one module instead of parsing
// environment variables ad hoc. The precedence rule, applied
// uniformly to every knob, is:
//
//     CLI flag  >  environment variable  >  built-in default
//
// The CLI layer installs parsed flags as a config::Overrides block; code
// that never sees a CLI (tests, library callers) simply gets env-or-default
// behaviour. Unknown *values* are rejected loudly (scale() throws on an
// unrecognized SAFELIGHT_SCALE instead of silently running at default
// scale), closing the silent-clamp bug class.
//
// Knobs and their environment variables:
//   scale()       SAFELIGHT_SCALE        "tiny" | "default" | "full"
//   seed_count()  SAFELIGHT_SEEDS        placements per grid cell (>= 1)
//   out_dir()     SAFELIGHT_OUT          CSV/JSON output directory
//   zoo_dir()     SAFELIGHT_ZOO          trained-model + result-store cache
//   threads()     SAFELIGHT_THREADS      worker threads (>= 1)
//   fault_mode()  SAFELIGHT_FAULT_MODE   fault injection (common/fault.hpp):
//                                        none|independent|run_length|uniform
//   fault_point() SAFELIGHT_FAULT_POINT  fault-point filter (empty = all)
//   fault_n()     SAFELIGHT_FAULT_N      run length of the injected crash
//   fault_prob()  SAFELIGHT_FAULT_PROB   independent-mode plug probability
//   fault_seed()  SAFELIGHT_FAULT_SEED   seed of the injection draws
//   workers()     SAFELIGHT_WORKERS      distributed worker processes
//                                        (0 = in-process, no coordinator)
//   heartbeat_timeout_s()  SAFELIGHT_HEARTBEAT_TIMEOUT  seconds of worker
//                                        silence before it is declared hung
//   max_task_retries()     SAFELIGHT_MAX_TASK_RETRIES   failures before a
//                                        task is quarantined as poison
//   trace_path()   SAFELIGHT_TRACE       Chrome trace-event output file
//                                        (empty = tracing disarmed)
//   metrics_path() SAFELIGHT_METRICS     metrics JSON output file
//                                        (empty = metrics disarmed)
//   trace_pipe()   SAFELIGHT_TRACE_PIPE  dist worker: buffer spans for the
//                                        coordinator (set by it, not users)
//   metrics_pipe() SAFELIGHT_METRICS_PIPE  dist worker: collect metrics for
//                                        the coordinator (likewise)
//   backend()      SAFELIGHT_BACKEND     gemm compute backend: "auto" or a
//                                        variant name (nn/backend.hpp)
//   serve_port()   SAFELIGHT_SERVE_PORT  `safelight serve` TCP port
//                                        (0 = ephemeral)
//   serve_slots()  SAFELIGHT_SERVE_SLOTS concurrent experiment slots
//   serve_queue_depth() SAFELIGHT_SERVE_QUEUE  jobs allowed to wait beyond
//                                        the running ones before 429
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace safelight {

/// Experiment scale presets: dataset sizes, model widths and training
/// epochs of the reproduction experiments (core/experiment_scale.hpp).
enum class Scale { kTiny, kDefault, kFull };

/// Scale name as parse_scale() accepts it: "tiny", "default" or "full".
std::string to_string(Scale scale);

}  // namespace safelight

namespace safelight::config {

/// CLI-level settings; a field left empty defers to env-or-default. The CLI
/// installs one of these after flag parsing; nothing else should.
struct Overrides {
  std::optional<Scale> scale;
  std::optional<std::size_t> seed_count;
  std::optional<std::string> out_dir;
  std::optional<std::string> zoo_dir;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> base_seed;
  std::optional<std::string> fault_mode;
  std::optional<std::string> fault_point;
  std::optional<std::uint64_t> fault_n;
  std::optional<std::size_t> workers;
  std::optional<double> heartbeat_timeout_s;
  std::optional<std::size_t> max_task_retries;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> backend;
  std::optional<std::uint16_t> serve_port;
  std::optional<std::size_t> serve_slots;
  std::optional<std::size_t> serve_queue_depth;
};

/// Installs `overrides` as the process-wide CLI layer (replacing any
/// previous block). Call before any sweep work starts: threads() feeds the
/// worker pool, which caches its size on first use.
void set_overrides(const Overrides& overrides);

/// The active CLI layer (all fields empty when no CLI installed one).
const Overrides& overrides();

/// RAII guard for tests: installs `overrides`, restores the previous block
/// on destruction.
class ScopedOverrides {
 public:
  explicit ScopedOverrides(const Overrides& next);
  ~ScopedOverrides();
  ScopedOverrides(const ScopedOverrides&) = delete;
  ScopedOverrides& operator=(const ScopedOverrides&) = delete;

 private:
  Overrides previous_;
};

/// Parses a scale name; throws std::invalid_argument listing the valid
/// names on anything else.
Scale parse_scale(const std::string& name);

/// Experiment scale: CLI > SAFELIGHT_SCALE > Scale::kDefault. Throws on an
/// unrecognized SAFELIGHT_SCALE value instead of silently defaulting.
Scale scale();

/// Placements per grid cell: CLI > SAFELIGHT_SEEDS > `fallback` (each
/// experiment supplies its own paper default). Values < 1 from the
/// environment are rejected with an actionable message.
std::size_t seed_count(std::size_t fallback);

/// Base placement seed: CLI > SAFELIGHT_BASE_SEED > `fallback`.
std::uint64_t base_seed(std::uint64_t fallback = 1000);

/// CSV/JSON output directory: CLI > SAFELIGHT_OUT > "safelight_out".
/// Created on demand.
std::string out_dir();

/// Model/result cache directory: CLI > SAFELIGHT_ZOO > "safelight_zoo".
/// Not created here; ModelZoo owns directory creation.
std::string zoo_dir();

/// Worker-thread count: CLI > SAFELIGHT_THREADS > hardware concurrency.
/// Always >= 1. Note safelight::worker_count() caches this on first use.
std::size_t threads();

/// Fault-injection mode name: CLI > SAFELIGHT_FAULT_MODE > "none". Returned
/// verbatim; fault::parse_mode rejects unknown names with the valid list.
std::string fault_mode();

/// Fault-point filter: CLI > SAFELIGHT_FAULT_POINT > "" (every point).
std::string fault_point();

/// Injected-crash run length: CLI > SAFELIGHT_FAULT_N > 1. Values < 1 are
/// rejected (the plug is pulled on the n-th matched hit, 1-based).
std::uint64_t fault_n();

/// Independent-mode plug probability: SAFELIGHT_FAULT_PROB > 0.0. Out-of-
/// range values are rejected by fault::init.
double fault_prob();

/// Seed of the fault-injection draws: SAFELIGHT_FAULT_SEED > 1.
std::uint64_t fault_seed();

/// Distributed worker-process count: CLI > SAFELIGHT_WORKERS > 0.
/// 0 means "no coordinator": experiments run in-process as always.
std::size_t workers();

/// Seconds of worker silence (no heartbeat, no completion) before the
/// coordinator declares it hung and reassigns its task:
/// CLI > SAFELIGHT_HEARTBEAT_TIMEOUT > 10. Must be > 0.
double heartbeat_timeout_s();

/// Times a task may fail (worker crash or hang) before the coordinator
/// quarantines it as poison: CLI > SAFELIGHT_MAX_TASK_RETRIES > 3.
std::size_t max_task_retries();

/// Chrome trace-event output file: CLI > SAFELIGHT_TRACE > "" (tracing
/// disarmed). trace::init_from_config() consumes this.
std::string trace_path();

/// Metrics JSON output file: CLI > SAFELIGHT_METRICS > "" (metrics
/// disarmed). metrics::init_from_config() consumes this.
std::string metrics_path();

/// Dist-worker telemetry buffering: true when the coordinator set
/// SAFELIGHT_TRACE_PIPE / SAFELIGHT_METRICS_PIPE (any non-empty value) in
/// the worker's environment. Consulted only when no output path is set.
bool trace_pipe();
bool metrics_pipe();

/// GEMM compute backend name: CLI > SAFELIGHT_BACKEND > "auto". Returned
/// verbatim; nn::backend::resolve rejects unknown or unsupported names
/// with the registered-variant list.
std::string backend();

/// `safelight serve` TCP port: CLI > SAFELIGHT_SERVE_PORT > 8080.
/// 0 binds an ephemeral port (tests, CI smoke); values > 65535 are
/// rejected.
std::uint16_t serve_port();

/// Concurrent experiment slots of the serve daemon:
/// CLI > SAFELIGHT_SERVE_SLOTS > 2. Must be >= 1.
std::size_t serve_slots();

/// Jobs allowed to wait beyond the running ones before the daemon answers
/// 429: CLI > SAFELIGHT_SERVE_QUEUE > 4. 0 disables queuing (admission
/// only while a slot is free).
std::size_t serve_queue_depth();

/// Strict numeric env reads shared by every numeric knob above (and by the
/// CLI's worker path): unset/empty -> nullopt; a value that is not
/// entirely a number throws std::invalid_argument naming the variable —
/// the actionable exit-2 path, never an uncaught parse error or a silent
/// fallback.
std::optional<std::int64_t> strict_env_int(const char* name);
std::optional<double> strict_env_double(const char* name);

}  // namespace safelight::config
