// Slot-based admission and scheduling of the `safelight serve` daemon.
//
// Modeled on llama.rn's rn-slot-manager.cpp: a fixed pool of N experiment
// slots (each a worker thread with a stable slot index), a FIFO queue with
// a bounded depth in front of them, and a drain path that turns the whole
// thing off without corrupting any tenant's results. Every slot runs
// against one zoo and its result stores (serve/slot.hpp, run_job).
//
// Admission rules (the backpressure contract, tested in serve_test):
//   * a slot is free           -> the job starts immediately;
//   * all slots busy, queue
//     has room                 -> the job waits FIFO;
//   * queue full               -> AdmissionError 429 ("try again later"),
//                                 the job is never created;
//   * draining                 -> AdmissionError 503 (no new work during
//                                 shutdown).
//
// Cancellation is cooperative end to end: DELETE on a queued job removes it
// from the queue and terminalizes it directly; on a running job it sets the
// job's cancel flag, which RunContext polls between coarse work units —
// exactly the seam SIGINT uses in the CLI.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/zoo.hpp"
#include "serve/slot.hpp"

namespace safelight::serve {

/// Thrown by submit(); `status` is the HTTP answer (429 queue full,
/// 503 draining).
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(int status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  int status() const { return status_; }

 private:
  int status_;
};

struct SlotManagerOptions {
  std::size_t slots = 2;
  /// Jobs allowed to wait beyond the running ones; 0 means "no queue"
  /// (admission only while a slot is free).
  std::size_t queue_depth = 4;
  /// Shared model zoo and result-store directory (empty =
  /// config::zoo_dir()).
  std::string zoo_dir;
};

class SlotManager {
 public:
  explicit SlotManager(const SlotManagerOptions& options);
  ~SlotManager();
  SlotManager(const SlotManager&) = delete;
  SlotManager& operator=(const SlotManager&) = delete;

  /// Admits a validated spec: assigns a job id, appends the queued event
  /// and wakes a slot thread. Throws AdmissionError (429/503) per the
  /// admission rules above. The spec must already be validate()d — the
  /// HTTP layer rejects malformed specs with 400 before admission.
  std::shared_ptr<Job> submit(const core::ExperimentSpec& spec);

  /// Job by id; nullptr when unknown.
  std::shared_ptr<Job> find(const std::string& id) const;

  /// All jobs in submission order (live and terminal).
  std::vector<std::shared_ptr<Job>> jobs() const;

  /// Cancels a job: a queued one terminalizes immediately, a running one
  /// gets its cancel flag set. Returns false for unknown ids; a terminal
  /// job returns true without effect (idempotent DELETE).
  bool cancel(const std::string& id);

  std::size_t slot_count() const { return threads_.size(); }
  std::size_t queue_depth() const { return options_.queue_depth; }
  std::size_t busy_slots() const;
  std::size_t queued_jobs() const;
  bool draining() const { return draining_.load(); }

  core::ModelZoo& zoo() { return zoo_; }

  /// Graceful drain: stops admission (503), cancels every queued job,
  /// requests cancellation of every running job, then joins the slot
  /// threads. Idempotent; called by the server on SIGINT/SIGTERM.
  void drain();

 private:
  void slot_loop(std::size_t slot_index);

  const SlotManagerOptions options_;
  core::ModelZoo zoo_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> queue_;           // waiting jobs, FIFO
  std::vector<std::shared_ptr<Job>> jobs_;           // all jobs, submit order
  std::size_t busy_ = 0;                             // slots running a job
  std::uint64_t next_id_ = 1;
  std::atomic<bool> draining_{false};
  bool stop_ = false;                                // joins the slot loops

  std::vector<std::thread> threads_;  // one per slot; joined by drain()
};

}  // namespace safelight::serve
