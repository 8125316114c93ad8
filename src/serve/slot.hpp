// Per-job state and per-slot execution of the `safelight serve` daemon.
//
// Modeled on llama.rn's slot architecture (rn-slot.cpp): a slot is one
// concurrent experiment — an index and the job currently bound to it —
// while the SlotManager schedules jobs onto slots. Slots own no storage:
// every job runs against the daemon's zoo and the result stores in it,
// the same files a CLI run on that zoo reads and writes. A Job carries
// everything one submitted experiment accumulates:
// the parsed spec, a monotonically growing NDJSON event log (progress
// streamed to any number of watchers), the cooperative cancel flag wired
// into RunContext, and the final result payload.
//
// Event shapes follow the dist-protocol convention (one compact JSON
// object per line, a "type" discriminator first):
//
//   {"type":"queued","job":"j1","experiment":"susceptibility","position":0}
//   {"type":"running","job":"j1","slot":0}
//   {"type":"progress","job":"j1","stage":"susceptibility: sweep ..."}
//   {"type":"result","job":"j1","wall_seconds":1.5,"result":"<the full
//    ExperimentResult::to_json() document, JSON-escaped>"}
//   {"type":"failed","job":"j1","message":"..."}
//   {"type":"cancelled","job":"j1"}
//
// The "result" field carries the exact bytes `safelight run --json` would
// write for the same spec (byte-identity is a serve ctest assertion); the
// raw document is also served unescaped at GET /v1/jobs/<id>/result.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace safelight::serve {

/// Job lifecycle. Queued and running are live; done/failed/cancelled are
/// terminal (the event stream ends once a terminal event is appended).
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

std::string to_string(JobState state);

/// One submitted experiment. Thread-safe: the slot thread appends events
/// and flips the state, any number of HTTP streaming handlers wait on the
/// condition variable and read events by index.
class Job {
 public:
  Job(std::string id, core::ExperimentSpec spec);

  const std::string& id() const { return id_; }
  const core::ExperimentSpec& spec() const { return spec_; }

  JobState state() const;
  /// Slot index while running (or after completion); -1 while queued.
  int slot() const;
  double wall_seconds() const;
  /// Final ExperimentResult::to_json() bytes; empty until kDone.
  std::string result_json() const;
  /// Failure message; empty unless kFailed.
  std::string error() const;

  /// Cooperative cancellation flag, wired into RunContext.cancel by the
  /// slot thread. Setting it is a request; the terminal state lands when
  /// the sweep actually aborts between work units.
  std::atomic<bool>& cancel_flag() { return cancel_; }

  bool terminal() const;

  /// Appends one NDJSON event line (with trailing '\n') and wakes waiters.
  void push_event(const std::string& line);

  /// Events [from, size()): returns the next batch, blocking up to
  /// `timeout_ms` when `from` is at the end and the job is not terminal.
  /// An empty return with terminal() true means the stream is complete.
  std::vector<std::string> wait_events(std::size_t from, int timeout_ms) const;

  /// Slot-thread transitions (each appends the corresponding event).
  void mark_running(int slot);
  void mark_done(double wall_seconds, std::string result_json);
  void mark_failed(const std::string& message);
  void mark_cancelled();

 private:
  void push_event_locked(const std::string& line);

  const std::string id_;
  const core::ExperimentSpec spec_;
  std::atomic<bool> cancel_{false};

  mutable std::mutex mutex_;
  mutable std::condition_variable events_cv_;
  JobState state_ = JobState::kQueued;
  int slot_ = -1;
  double wall_seconds_ = 0.0;
  std::string result_json_;
  std::string error_;
  std::vector<std::string> events_;
};

/// Runs `job` on slot `slot` to a terminal state: binds the spec to the
/// zoo's result stores (as `safelight run` does, so concurrent tenants of
/// one store share its one instance), wires progress/cancel into a
/// RunContext over `zoo`, executes through the global ExperimentRegistry
/// and appends the terminal event. Never throws — failures land in the job
/// as kFailed.
void run_job(int slot, Job& job, core::ModelZoo& zoo);

/// Event-line encoders (exposed for tests; all end with '\n').
std::string encode_queued_event(const Job& job, std::size_t position);
std::string encode_running_event(const Job& job, int slot);
std::string encode_progress_event(const Job& job, const std::string& stage);
std::string encode_result_event(const Job& job, double wall_seconds,
                                const std::string& result_json);
std::string encode_failed_event(const Job& job, const std::string& message);
std::string encode_cancelled_event(const Job& job);

}  // namespace safelight::serve
