#include "dist/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "core/zoo.hpp"
#include "dist/protocol.hpp"
#include "nn/backend.hpp"

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
            std::unique_ptr<nn::Sequential> weights, std::string store_file,
            core::ResultStore& sweep_store)
      : sweep(std::move(declared)),
        store_name(std::move(store_file)),
        store(&sweep_store),
        deployment(spec, setup, sweep, std::move(weights),
                   std::make_shared<core::PrefixCache>()) {}

  core::CellSweep sweep;
  std::string store_name;
  core::ResultStore* store;  // owned by the worker's store map
  core::Deployment deployment;
};

/// Private stores by file name: sweeps writing one file (robust_compare's
/// Original sweep in both rounds) share its single writer.
using StoreMap = std::map<std::string, std::unique_ptr<core::ResultStore>>;

std::unique_ptr<KeptSweep> deploy(const TaskMessage& task,
                                  core::ModelZoo& zoo,
                                  const std::string& store_dir,
                                  StoreMap& stores) {
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
  auto& store = stores[store_name];
  if (!store) {
    store = std::make_unique<core::ResultStore>(store_dir + "/" + store_name);
  }
  return std::make_unique<KeptSweep>(spec, setup, std::move(sweep),
                                     std::move(model), std::move(store_name),
                                     *store);
}

void run_task(const TaskMessage& task, KeptSweep& kept, const Seams& seams,
              const std::atomic<bool>* cancel, EventMessage& done) {
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
  std::vector<std::size_t> cells;
  std::vector<core::SweepCell> task_cells;  // cells[j]'s declaration
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
    cells.push_back(static_cast<std::size_t>(it - sweep.cells.begin()));
    task_cells.push_back(*it);
  }
  // The engine's pending rule over the task's cells, so worker, planner
  // and engine agree on what is cached (and on one id per key).
  core::ResultStore& store = *kept.store;
  const std::vector<std::size_t> pending = core::pending_cells(
      task_cells, [&](const std::string& key) { return store.contains(key); });
  done.cached += cells.size() - pending.size();
  for (const std::size_t p : pending) {
    if (cancel != nullptr && cancel->load()) {
      throw core::ExperimentCancelled("worker");
    }
    const std::size_t i = cells[p];
    apply_seams(seams, sweep.cells[i].id);
    sweep.evaluate(kept.deployment, i, store);
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
  EventMessage hello;
  hello.type = EventMessage::Type::kHello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  // Handshake payload: which variant this worker dispatches to, and the
  // digest of its kernel numerics. The coordinator rejects a mismatched
  // digest before any task is assigned (a SAFELIGHT_DIST_BIN binary with
  // different math must not contribute store rows).
  hello.backend = nn::backend::active().name();
  hello.kernel = nn::backend::kernel_fingerprint();
  if (const char* fake = std::getenv("SAFELIGHT_DIST_FAKE_KERNEL")) {
    // Test seam: advertise a bogus fingerprint so dist_test can prove the
    // coordinator's rejection path without building a second binary.
    if (fake[0] != '\0') hello.kernel = fake;
  }
  writer.send(hello);

  HeartbeatThread heartbeat(writer, options.heartbeat_interval_s);
  std::filesystem::create_directories(options.store_dir);
  core::ModelZoo zoo(options.zoo_dir);
  const Seams seams = read_seams();
  StoreMap stores;
  // Keyed by (experiment, spec document, sweep index).
  std::map<std::string, std::unique_ptr<KeptSweep>> kept_sweeps;

  LineReader reader(options.protocol_in);
  while (auto line = reader.next_line()) {
    if (line->empty()) continue;
    if (is_shutdown(*line)) break;
    const TaskMessage task = decode_task(*line);
    EventMessage done;
    done.type = EventMessage::Type::kDone;
    done.task_id = task.id;
    try {
      std::unique_ptr<KeptSweep>& kept =
          kept_sweeps[task.experiment + '\n' + task.spec + '\n' +
                      std::to_string(task.sweep)];
      if (!kept) kept = deploy(task, zoo, options.store_dir, stores);
      {
        trace::Span task_span("dist", "worker.task");
        task_span.arg("task", static_cast<double>(task.id));
        run_task(task, *kept, seams, options.cancel, done);
        task_span.arg("evaluated", static_cast<double>(done.evaluated))
            .arg("cached", static_cast<double>(done.cached));
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
  // Final telemetry, after the shutdown command: the trailing span buffer
  // (heartbeats since the last task) and one metrics snapshot — counters
  // and histogram buckets merge additively on the coordinator, so exactly
  // one snapshot per worker lifetime keeps the fleet totals honest.
  ship_trace(writer);
  if (metrics::armed()) {
    EventMessage event;
    event.type = EventMessage::Type::kMetrics;
    event.metrics = metrics::snapshot();
    writer.send(event);
  }
  return 0;
}

}  // namespace safelight::dist
