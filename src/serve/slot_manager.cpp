#include "serve/slot_manager.hpp"

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace safelight::serve {

namespace {

metrics::Counter& submitted_counter() {
  static metrics::Counter& c = metrics::counter("serve.jobs.submitted");
  return c;
}
metrics::Counter& rejected_counter() {
  static metrics::Counter& c = metrics::counter("serve.jobs.rejected");
  return c;
}
metrics::Gauge& queue_gauge() {
  static metrics::Gauge& g = metrics::gauge("serve.queue.depth");
  return g;
}
metrics::Gauge& busy_gauge() {
  static metrics::Gauge& g = metrics::gauge("serve.slots.busy");
  return g;
}

}  // namespace

SlotManager::SlotManager(const SlotManagerOptions& options)
    : options_(options),
      zoo_(options.zoo_dir.empty() ? config::zoo_dir() : options.zoo_dir) {
  // The zoo (and its orphan sweep) exists before any slot thread starts.
  const std::size_t slot_count = options_.slots == 0 ? 1 : options_.slots;
  threads_.reserve(slot_count);
  for (std::size_t i = 0; i < slot_count; ++i) {
    threads_.emplace_back([this, i] { slot_loop(i); });
  }
}

SlotManager::~SlotManager() { drain(); }

std::shared_ptr<Job> SlotManager::submit(const core::ExperimentSpec& spec) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_.load()) {
    rejected_counter().add();
    throw AdmissionError(503, "serve: draining, no new jobs admitted");
  }
  // Admission: the queue bounds *waiting* jobs only — a job headed straight
  // for a free slot never counts against the depth.
  if (busy_ >= slot_count() && queue_.size() >= options_.queue_depth) {
    rejected_counter().add();
    throw AdmissionError(
        429, "serve: all " + std::to_string(slot_count()) +
                 " slot(s) busy and the queue is full (" +
                 std::to_string(options_.queue_depth) +
                 " waiting); retry later");
  }
  std::string id = "j";  // two-step append: GCC 12's -Wrestrict misfires on
  id += std::to_string(next_id_++);  // `"j" + std::to_string(...)` here
  auto job = std::make_shared<Job>(std::move(id), spec);
  job->push_event(encode_queued_event(*job, queue_.size()));
  jobs_.push_back(job);
  queue_.push_back(job);
  submitted_counter().add();
  queue_gauge().set(static_cast<double>(queue_.size()));
  lock.unlock();
  work_cv_.notify_one();
  return job;
}

std::shared_ptr<Job> SlotManager::find(const std::string& id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  for (const auto& job : jobs_) {
    if (job->id() == id) return job;
  }
  return nullptr;
}

std::vector<std::shared_ptr<Job>> SlotManager::jobs() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return jobs_;
}

bool SlotManager::cancel(const std::string& id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto& candidate : jobs_) {
      if (candidate->id() == id) {
        job = candidate;
        break;
      }
    }
    if (job == nullptr) return false;
    // A queued job terminalizes right here — it never reaches a slot.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->id() == id) {
        queue_.erase(it);
        queue_gauge().set(static_cast<double>(queue_.size()));
        job->mark_cancelled();
        static metrics::Counter& cancelled =
            metrics::counter("serve.jobs.cancelled");
        cancelled.add();
        return true;
      }
    }
  }
  // Running (or already terminal): request cooperative cancellation; the
  // slot thread terminalizes the job when the sweep aborts.
  job->cancel_flag().store(true);
  return true;
}

std::size_t SlotManager::busy_slots() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return busy_;
}

std::size_t SlotManager::queued_jobs() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return queue_.size();
}

void SlotManager::slot_loop(std::size_t slot_index) {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      ++busy_;
      queue_gauge().set(static_cast<double>(queue_.size()));
      busy_gauge().set(static_cast<double>(busy_));
    }
    run_job(static_cast<int>(slot_index), *job, zoo_);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      --busy_;
      busy_gauge().set(static_cast<double>(busy_));
    }
  }
}

void SlotManager::drain() {
  std::vector<std::shared_ptr<Job>> to_cancel;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stop_) return;  // second drain (destructor after explicit drain)
    draining_.store(true);
    stop_ = true;
    // Queued jobs terminalize now; running ones get the cooperative flag
    // and finish (cancelled) inside their slot thread before the join.
    while (!queue_.empty()) {
      queue_.front()->mark_cancelled();
      queue_.pop_front();
    }
    queue_gauge().set(0.0);
    for (const auto& job : jobs_) {
      if (!job->terminal()) to_cancel.push_back(job);
    }
  }
  for (const auto& job : to_cancel) job->cancel_flag().store(true);
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  log::info("serve", "drained: %zu job(s) total, %zu slot(s)", jobs().size(),
            slot_count());
}

}  // namespace safelight::serve
