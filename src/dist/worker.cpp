#include "dist/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/zoo.hpp"
#include "dist/protocol.hpp"

namespace safelight::dist {

namespace {

/// Serializes event lines onto the protocol fd: the heartbeat thread and
/// the task loop share it, and an interleaved half-line would corrupt the
/// stream. Write failures are swallowed — a dead coordinator (EPIPE) is
/// detected by the task loop's EOF, not here.
class ProtocolWriter {
 public:
  explicit ProtocolWriter(int fd) : fd_(fd) {}

  void send(const EventMessage& event) {
    const std::string line = encode_event(event);
    std::lock_guard<std::mutex> guard(mutex_);
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::mutex mutex_;
};

/// Emits {"type":"heartbeat"} every interval until destroyed. SIGSTOP (the
/// hang seam) freezes this thread with the rest of the process, which is
/// precisely what lets the coordinator's timeout fire.
class HeartbeatThread {
 public:
  HeartbeatThread(ProtocolWriter& writer, double interval_s)
      : writer_(writer),
        interval_(interval_s),
        thread_([this] { run(); }) {}

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      lock.unlock();
      // Instant marker on this worker's track: the merged fleet trace shows
      // exactly when each worker last proved liveness.
      trace::Span("dist", "dist.heartbeat");
      EventMessage beat;
      beat.type = EventMessage::Type::kHeartbeat;
      writer_.send(beat);
      lock.lock();
    }
  }

  ProtocolWriter& writer_;
  std::chrono::duration<double> interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Blocking '\n'-delimited reader over the protocol-in fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next complete line (terminator stripped), or nullopt on EOF. A
  /// trailing fragment with no terminator is discarded: a coordinator that
  /// died mid-write never finished that command.
  std::optional<std::string> next_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (n == 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Chaos/fault seams, read once from the environment (see worker.hpp).
struct Seams {
  std::string poison;     // SAFELIGHT_DIST_POISON
  std::string hang;       // SAFELIGHT_DIST_HANG
  std::string hang_once;  // SAFELIGHT_DIST_HANG_ONCE sentinel path
};

Seams read_seams() {
  Seams seams;
  if (const char* value = std::getenv("SAFELIGHT_DIST_POISON")) {
    seams.poison = value;
  }
  if (const char* value = std::getenv("SAFELIGHT_DIST_HANG")) {
    seams.hang = value;
  }
  if (const char* value = std::getenv("SAFELIGHT_DIST_HANG_ONCE")) {
    seams.hang_once = value;
  }
  return seams;
}

void apply_seams(const Seams& seams, const std::string& cell_id) {
  if (!seams.poison.empty() &&
      cell_id.find(seams.poison) != std::string::npos) {
    std::_Exit(41);  // deterministic poison: fails identically on retry
  }
  if (!seams.hang.empty() &&
      cell_id.find(seams.hang) != std::string::npos) {
    bool should_hang = true;
    if (!seams.hang_once.empty()) {
      // Only the first process to create the sentinel hangs, so the
      // reassigned task completes on the replacement worker.
      const int fd =
          ::open(seams.hang_once.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd >= 0) {
        ::close(fd);
      } else {
        should_hang = false;
      }
    }
    if (should_hang) ::raise(SIGSTOP);  // silences the heartbeat thread too
  }
}

/// One declared sweep and its deployment, kept across the small tasks of
/// one (experiment, spec, sweep): no model load, conditioning or suite
/// calibration per chunk, and the deployment's prefix cache stays warm.
struct KeptSweep {
  KeptSweep(const core::ExperimentSpec& spec,
            const core::ExperimentSetup& setup, core::CellSweep declared,
            std::unique_ptr<nn::Sequential> weights, std::string store_file)
      : sweep(std::move(declared)),
        store_name(std::move(store_file)),
        deployment(spec, setup, sweep, std::move(weights),
                   std::make_shared<core::PrefixCache>()) {}

  core::CellSweep sweep;
  std::string store_name;
  core::Deployment deployment;
};

std::unique_ptr<KeptSweep> deploy(const TaskMessage& task,
                                  core::ModelZoo& zoo) {
  const core::ExperimentSpec spec = core::spec_from_json(task.spec);
  require(spec.experiment == task.experiment,
          "worker: task experiment '" + task.experiment +
              "' differs from its spec's '" + spec.experiment + "'");
  const core::ExperimentInfo& info =
      core::ExperimentRegistry::global().info(task.experiment);
  std::vector<core::CellSweep> sweeps = info.sweeps(spec);
  require(task.sweep < sweeps.size(),
          "worker: task names an undeclared sweep of " + task.experiment);

  core::CellSweep& sweep = sweeps[task.sweep];
  // The coordinator trains every declared zoo entry before dispatching,
  // so this is a cache load; training here anyway (e.g. after a corrupted
  // entry) is correct, just slow.
  const core::ExperimentSetup setup = spec.resolved_setup();
  auto model = zoo.get_or_train(setup, sweep.variant, /*verbose=*/false);
  std::string store_name = core::sweep_store_name(
      setup, spec.corruption, sweep, core::weights_checksum(*model));
  return std::make_unique<KeptSweep>(spec, setup, std::move(sweep),
                                     std::move(model), std::move(store_name));
}

/// Ships what the registry counted since the last call, then zeroes it and
/// stays armed (a worker writes no metrics file): the coordinator adds the
/// deltas up.
void ship_metrics(ProtocolWriter& writer) {
  if (!metrics::armed()) return;
  EventMessage event;
  event.type = EventMessage::Type::kMetrics;
  event.metrics = metrics::snapshot();
  metrics::arm_collection();
  writer.send(event);
}

/// Evaluates every cell of `task` in order and sends each cell's rows the
/// moment it is done, so a crash loses only the cell in flight.
void run_task(const TaskMessage& task, KeptSweep& kept, const Seams& seams,
              const std::atomic<bool>* cancel, ProtocolWriter& writer,
              EventMessage& done) {
  // The store name carries the weights checksum and the corruption and
  // suite fingerprints: a coordinator and worker that disagree on any of
  // them would cache wrong values under keys the assembly run trusts.
  if (task.store != kept.store_name) {
    throw std::runtime_error(
        "worker: store mismatch (task " + task.store + " vs local " +
        kept.store_name +
        "); coordinator and worker disagree on weights or physics");
  }
  const core::CellSweep& sweep = kept.sweep;
  for (const std::string& id : task.cells) {
    const auto it = std::find_if(
        sweep.cells.begin(), sweep.cells.end(),
        [&](const core::SweepCell& cell) { return cell.id == id; });
    if (it == sweep.cells.end()) {
      throw std::runtime_error("worker: cell '" + id +
                               "' is not declared by sweep " +
                               std::to_string(task.sweep) + " of '" +
                               task.experiment + "'");
    }
    if (cancel != nullptr && cancel->load()) {
      throw core::ExperimentCancelled("worker");
    }
    apply_seams(seams, id);
    EventMessage cell;
    cell.type = EventMessage::Type::kCell;
    cell.task_id = task.id;
    cell.cell = id;
    cell.rows = core::evaluate_cell_rows(
        sweep, kept.deployment,
        static_cast<std::size_t>(it - sweep.cells.begin()));
    fault::ptp("dist.worker.cell");  // crash: this cell's rows never sent
    writer.send(cell);
    // The cell's counts travel right behind its rows: a crash loses only
    // the counts of a cell its retry evaluates again.
    ship_metrics(writer);
    ++done.evaluated;
  }
}

/// Ships every span buffered since the last call. Sent after each task
/// (so a later crash loses at most one task's spans) and at shutdown.
void ship_trace(ProtocolWriter& writer) {
  if (!trace::armed()) return;
  EventMessage event;
  event.type = EventMessage::Type::kTrace;
  event.spans = trace::drain();
  if (!event.spans.empty()) writer.send(event);
}

}  // namespace

int run_worker(const WorkerOptions& options) {
  ProtocolWriter writer(options.protocol_out);
  HeartbeatThread heartbeat(writer, options.heartbeat_interval_s);
  core::ModelZoo zoo(options.zoo_dir);
  const Seams seams = read_seams();
  // The deployments of the one spec document the latest task named, by
  // sweep index: a worker serving a whole run-all holds one experiment's.
  std::string kept_document;
  std::map<std::size_t, std::unique_ptr<KeptSweep>> kept_sweeps;

  LineReader reader(options.protocol_in);
  while (auto line = reader.next_line()) {
    if (line->empty()) continue;
    if (is_shutdown(*line)) break;
    const TaskMessage task = decode_task(*line);
    EventMessage done;
    done.type = EventMessage::Type::kDone;
    done.task_id = task.id;
    try {
      if (kept_document != task.experiment + '\n' + task.spec) {
        kept_sweeps.clear();
        kept_document = task.experiment + '\n' + task.spec;
      }
      std::unique_ptr<KeptSweep>& kept = kept_sweeps[task.sweep];
      if (!kept) kept = deploy(task, zoo);
      {
        trace::Span task_span("dist", "worker.task");
        task_span.arg("task", static_cast<double>(task.id));
        run_task(task, *kept, seams, options.cancel, writer, done);
        task_span.arg("evaluated", static_cast<double>(done.evaluated));
      }
      writer.send(done);
    } catch (const core::ExperimentCancelled&) {
      throw;  // CLI maps this to exit 130 like the in-process path
    } catch (const std::exception& error) {
      EventMessage fatal;
      fatal.type = EventMessage::Type::kFatal;
      fatal.task_id = task.id;
      fatal.message = error.what();
      writer.send(fatal);
    }
    ship_trace(writer);
  }
  // Final telemetry, after the shutdown command: what was recorded since
  // the last task (heartbeats, mostly). Counters and histogram buckets
  // merge additively on the coordinator, so the deltas sum to the totals.
  ship_trace(writer);
  ship_metrics(writer);
  return 0;
}

}  // namespace safelight::dist
