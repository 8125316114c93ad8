#include "serve/slot.hpp"

#include <chrono>
#include <filesystem>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace safelight::serve {

std::string to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Event encoders — dist-protocol style: one compact JSON object per line,
// "type" first so a reader can dispatch before decoding the rest.
// ---------------------------------------------------------------------------

namespace {

JsonWriter event_writer(const char* type, const Job& job) {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("type").value(type);
  json.key("job").value(job.id());
  return json;
}

std::string finish(JsonWriter&& json) {
  json.end_object();
  return std::move(json).str();  // str() ends with the NDJSON newline
}

}  // namespace

std::string encode_queued_event(const Job& job, std::size_t position) {
  JsonWriter json = event_writer("queued", job);
  json.key("experiment").value(job.spec().experiment);
  json.key("model").value(nn::to_string(job.spec().model));
  json.key("position").value(static_cast<std::uint64_t>(position));
  return finish(std::move(json));
}

std::string encode_running_event(const Job& job, int slot) {
  JsonWriter json = event_writer("running", job);
  json.key("slot").value(static_cast<std::int64_t>(slot));
  return finish(std::move(json));
}

std::string encode_progress_event(const Job& job, const std::string& stage) {
  JsonWriter json = event_writer("progress", job);
  json.key("stage").value(stage);
  return finish(std::move(json));
}

std::string encode_result_event(const Job& job, double wall_seconds,
                                const std::string& result_json) {
  JsonWriter json = event_writer("result", job);
  json.key("wall_seconds").value(wall_seconds, 3);
  json.key("result").value(result_json);
  return finish(std::move(json));
}

std::string encode_failed_event(const Job& job, const std::string& message) {
  JsonWriter json = event_writer("failed", job);
  json.key("message").value(message);
  return finish(std::move(json));
}

std::string encode_cancelled_event(const Job& job) {
  return finish(event_writer("cancelled", job));
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

Job::Job(std::string id, core::ExperimentSpec spec)
    : id_(std::move(id)), spec_(std::move(spec)) {}

JobState Job::state() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return state_;
}

int Job::slot() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return slot_;
}

double Job::wall_seconds() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return wall_seconds_;
}

std::string Job::result_json() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return result_json_;
}

std::string Job::error() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return error_;
}

bool Job::terminal() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return state_ == JobState::kDone || state_ == JobState::kFailed ||
         state_ == JobState::kCancelled;
}

void Job::push_event(const std::string& line) {
  std::lock_guard<std::mutex> guard(mutex_);
  push_event_locked(line);
}

void Job::push_event_locked(const std::string& line) {
  events_.push_back(line);
  events_cv_.notify_all();
}

std::vector<std::string> Job::wait_events(std::size_t from,
                                          int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (from >= events_.size() && state_ != JobState::kDone &&
      state_ != JobState::kFailed && state_ != JobState::kCancelled) {
    events_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return events_.size() > from; });
  }
  std::vector<std::string> batch;
  for (std::size_t i = from; i < events_.size(); ++i) {
    batch.push_back(events_[i]);
  }
  return batch;
}

void Job::mark_running(int slot) {
  std::lock_guard<std::mutex> guard(mutex_);
  state_ = JobState::kRunning;
  slot_ = slot;
  push_event_locked(encode_running_event(*this, slot));
}

void Job::mark_done(double wall_seconds, std::string result_json) {
  std::lock_guard<std::mutex> guard(mutex_);
  state_ = JobState::kDone;
  wall_seconds_ = wall_seconds;
  result_json_ = std::move(result_json);
  push_event_locked(encode_result_event(*this, wall_seconds, result_json_));
}

void Job::mark_failed(const std::string& message) {
  std::lock_guard<std::mutex> guard(mutex_);
  state_ = JobState::kFailed;
  error_ = message;
  push_event_locked(encode_failed_event(*this, message));
}

void Job::mark_cancelled() {
  std::lock_guard<std::mutex> guard(mutex_);
  state_ = JobState::kCancelled;
  push_event_locked(encode_cancelled_event(*this));
}

// ---------------------------------------------------------------------------
// Slot
// ---------------------------------------------------------------------------

Slot::Slot(int index, std::string store_dir)
    : index_(index), store_dir_(std::move(store_dir)) {
  std::filesystem::create_directories(store_dir_);
}

void Slot::run(Job& job, core::ModelZoo& zoo) {
  job.mark_running(index_);

  // Per-slot store binding is the multi-tenant isolation seam: the spec's
  // cache_dir points at this slot's directory, so two slots running the
  // same (experiment, scale) never contend on one store's writer lock and
  // can never interleave rows in one file. The zoo stays shared (train-once
  // under ModelZoo's entry locks).
  core::ExperimentSpec spec = job.spec();
  spec.cache_dir = store_dir_;

  core::RunContext context(zoo);
  context.cancel = &job.cancel_flag();
  context.progress = [&job](const std::string& stage) {
    job.push_event(encode_progress_event(job, stage));
  };

  static metrics::Counter& completed = metrics::counter("serve.jobs.completed");
  static metrics::Counter& failed = metrics::counter("serve.jobs.failed");
  static metrics::Counter& cancelled = metrics::counter("serve.jobs.cancelled");
  static metrics::Histogram& wall =
      metrics::histogram("serve.job.wall_seconds");

  trace::Span span("serve", "serve.job");
  span.arg("job", job.id())
      .arg("experiment", spec.experiment)
      .arg("model", nn::to_string(spec.model))
      .arg("slot", static_cast<double>(index_));

  try {
    const core::ExperimentResult result =
        core::ExperimentRegistry::global().run(spec, context);
    span.arg("wall_seconds", result.wall_seconds);
    wall.record(result.wall_seconds);
    completed.add();
    job.mark_done(result.wall_seconds, result.to_json());
  } catch (const core::ExperimentCancelled&) {
    span.arg("outcome", "cancelled");
    cancelled.add();
    job.mark_cancelled();
  } catch (const std::exception& error) {
    span.arg("outcome", "failed");
    failed.add();
    log::warn("serve", "job %s failed: %s", job.id().c_str(), error.what());
    job.mark_failed(error.what());
  }
}

}  // namespace safelight::serve
