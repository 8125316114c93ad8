#include "dist/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/config.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "core/zoo.hpp"
#include "dist/protocol.hpp"

namespace safelight::dist {

namespace {

// Alias of the header-pinned steady clock (see coordinator.hpp): all
// silence/backoff/deadline arithmetic below goes through this one name.
using Clock = CoordinatorClock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Requeue backoff: min(kRetryCapS, kRetryBaseS * 2^(failures-1)).
constexpr double kRetryBaseS = 0.2;
constexpr double kRetryCapS = 5.0;

/// Every worker is this very executable, so it runs the coordinator's own
/// kernel numerics by construction.
constexpr const char* kSelfExe = "/proc/self/exe";

/// Round-trip exact decimal text of a double flag value.
std::string exact_decimal(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// SIGPIPE -> SIG_IGN for the coordinator's lifetime: writing a task to a
/// worker that just died must surface as EPIPE (handled, task requeued),
/// not kill the coordinator.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~SigpipeGuard() { ::sigaction(SIGPIPE, &previous_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction previous_ {};
};

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == fault::kPlugPulledExitCode) {
      return "plug pulled (injected crash, exit 42)";
    }
    return "exited with code " + std::to_string(code);
  }
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  return "ended with status " + std::to_string(status);
}

struct WorkerSlot {
  int slot = 0;
  int generation = 0;  // bumped per (re)spawn; feeds the chaos seed
  pid_t pid = -1;
  int task_fd = -1;   // write end: coordinator -> worker stdin
  int event_fd = -1;  // read end:  worker stdout -> coordinator
  bool alive = false;
  // The in-flight task, whose only owner this slot is; empty when idle.
  std::optional<std::uint64_t> current_task;
  // Trace start of current_task: the dispatch->done "dist.task" span
  // crosses event-loop iterations.
  std::uint64_t dispatch_ns = 0;
  std::string buffer;  // partial protocol line
  Clock::time_point last_heard{};
};

struct DistSummary {
  std::size_t workers = 0;
  std::size_t tasks = 0;      // tasks dispatched across all hand-offs
  std::size_t completed = 0;  // tasks finished (done event received)
  std::size_t retries = 0;    // requeues after a failure
  std::size_t crashes = 0;    // worker deaths (incl. injected plug pulls)
  std::size_t hang_kills = 0; // heartbeat-timeout SIGKILLs
  std::size_t rounds = 0;     // evaluate hand-offs (registry runs)
  std::vector<QuarantinedTask> quarantined;
  double wall_seconds = 0.0;  // spent inside evaluate hand-offs
};

struct TaskState {
  /// task.cells holds only the cells whose rows have not arrived yet, so a
  /// requeued task resumes where its dead worker stopped.
  TaskMessage task;
  std::vector<std::vector<std::string>> keys;  // declared keys of task.cells
  std::shared_ptr<core::ResultStore> store;   // the prepared store
  std::size_t failures = 0;  // failed attempts since rows last arrived
  std::string last_error;
  Clock::time_point eligible_at{};  // backoff gate for re-dispatch
  bool completed = false;
  bool quarantined = false;
};

}  // namespace

class Coordinator {
 public:
  Coordinator(core::ModelZoo& zoo, const DistOptions& options)
      : zoo_(zoo), options_(options) {
    require(options_.workers >= 1, "dist::Fleet: workers must be >= 1");
    log_dir_ = zoo_.directory() + "/dist/logs";
    slots_.resize(options_.workers);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].slot = static_cast<int>(i);
    }
    summary_.workers = options_.workers;
    if (trace::armed()) {
      // One merged fleet trace: the coordinator's own spans are pid 1, each
      // worker slot gets a stable pid (respawns keep their predecessor's
      // track — the slot, not the generation, is the unit of scheduling).
      trace::set_track_name(1, "coordinator");
      for (const WorkerSlot& slot : slots_) {
        trace::set_track_name(
            2 + static_cast<std::uint32_t>(slot.slot),
            "worker w" + std::to_string(slot.slot));
      }
    }
  }

  ~Coordinator() {
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      ::kill(slot.pid, SIGKILL);
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      close_slot(slot);
    }
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  void evaluate(const core::ExperimentSpec& spec,
                const std::vector<core::PreparedSweep>& sweeps) {
    ++summary_.rounds;
    std::size_t total_pending = 0;
    for (const core::PreparedSweep& prepared : sweeps) {
      total_pending += prepared.pending.size();
    }
    if (total_pending == 0) return;
    const Clock::time_point start = Clock::now();
    // Every sweep of the run in one hand-off, chunked by one rule: the
    // fleet never idles between the sweeps of an experiment.
    const std::size_t chunk = std::clamp<std::size_t>(
        total_pending / (options_.workers * 4), 1, 32);
    const std::string shipped_spec = core::spec_to_json(spec);
    for (const core::PreparedSweep& prepared : sweeps) {
      const std::vector<core::SweepCell>& cells = prepared.sweep->cells;
      for (std::size_t begin = 0; begin < prepared.pending.size();
           begin += chunk) {
        TaskState state;
        state.task = {next_task_id_++, spec.experiment, shipped_spec,
                      prepared.index, prepared.store_name, {}};
        state.store = prepared.store;
        const std::size_t end =
            std::min(begin + chunk, prepared.pending.size());
        for (std::size_t p = begin; p < end; ++p) {
          const core::SweepCell& cell = cells[prepared.pending[p]];
          state.task.cells.push_back(cell.id);
          state.keys.push_back(cell.keys);
        }
        pending_.push_back(state.task.id);
        tasks_.emplace(state.task.id, std::move(state));
      }
    }
    summary_.tasks += tasks_.size();
    const std::size_t quarantined_before = summary_.quarantined.size();
    finished_ = 0;
    // The coordinator may have spent a while training since the last event
    // read; do not count that silence against the workers.
    for (WorkerSlot& slot : slots_) {
      if (slot.alive) slot.last_heard = start;
    }
    bool cancelled = false;
    while (finished_ < tasks_.size()) {
      if (options_.cancel != nullptr && options_.cancel->load()) {
        cancelled = true;
        break;
      }
      reap_exited();
      check_heartbeats();
      respawn_dead();
      dispatch();
      poll_events(/*timeout_ms=*/100);
    }
    // Rows still in flight are appended while the workers drain, so the
    // partial results of a cancelled run stay cached.
    if (cancelled) shutdown_workers();
    if (cancelled) throw core::ExperimentCancelled(spec.experiment);
    // Every task finished; release the stores they hold.
    tasks_.clear();
    summary_.wall_seconds += seconds_between(start, Clock::now());
    if (summary_.quarantined.size() > quarantined_before) {
      throw QuarantinedError(
          {summary_.quarantined.begin() +
               static_cast<std::ptrdiff_t>(quarantined_before),
           summary_.quarantined.end()});
    }
  }

  void finish() {
    shutdown_workers();
    std::printf(
        "[dist] summary: workers=%zu tasks=%zu completed=%zu retries=%zu "
        "hang_kills=%zu crashes=%zu quarantined=%zu rounds=%zu "
        "wall=%.2fs\n",
        summary_.workers, summary_.tasks, summary_.completed,
        summary_.retries, summary_.hang_kills, summary_.crashes,
        summary_.quarantined.size(), summary_.rounds, summary_.wall_seconds);
    std::fflush(stdout);
  }

 private:
  // ---- process management -------------------------------------------------

  /// A worker's whole configuration, as flags: under flag > env precedence
  /// no SAFELIGHT_* value the worker inherits can override them.
  std::vector<std::string> worker_args(const WorkerSlot& slot) const {
    std::vector<std::string> args = {
        kSelfExe, "worker", "--zoo", zoo_.directory(), "--threads",
        std::to_string(config::threads()),
        // "auto" stays "auto": on the same CPU it resolves to the same
        // variant, and every variant is bitwise-identical (nn/backend.hpp).
        "--backend", config::backend(), "--heartbeat-timeout",
        exact_decimal(options_.heartbeat_timeout_s),
        // In a worker a telemetry path only arms buffering: spans and
        // metrics ship home over the pipe, and the coordinator alone writes
        // the files. An empty path keeps the worker disarmed.
        "--trace", config::trace_path(), "--metrics", config::metrics_path()};
    if (options_.chaos_kill_prob > 0.0) {
      // Arm the plug-pull harness in the worker only: every fault point,
      // independent draws, a seed unique per slot *and* generation so a
      // respawned worker does not replay its predecessor's kill schedule.
      const std::uint64_t seed =
          options_.chaos_seed + static_cast<std::uint64_t>(slot.slot) * 1000 +
          static_cast<std::uint64_t>(slot.generation);
      args.insert(args.end(),
                  {"--fault-mode", "independent", "--fault-point", "",
                   "--fault-prob", exact_decimal(options_.chaos_kill_prob),
                   "--fault-seed", std::to_string(seed)});
    }
    return args;
  }

  void spawn(WorkerSlot& slot) {
    ++slot.generation;
    int task_pipe[2];
    int event_pipe[2];
    // O_CLOEXEC on every coordinator-held end: a sibling worker inheriting
    // a copy of this pipe would keep it open forever and break EOF/EPIPE
    // detection. The child's std fds are re-created by dup2 below.
    if (::pipe2(task_pipe, O_CLOEXEC) != 0 ||
        ::pipe2(event_pipe, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("safelight: pipe2 failed: ") +
                               std::strerror(errno));
    }

    std::filesystem::create_directories(log_dir_);
    const std::string log_path =
        log_dir_ + "/w" + std::to_string(slot.slot) + ".log";
    std::vector<std::string> args = worker_args(slot);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("safelight: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      ::dup2(task_pipe[0], 0);
      ::dup2(event_pipe[1], 1);
      const int log_fd =
          ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 2);
        if (log_fd > 2) ::close(log_fd);
      }
      ::execv(kSelfExe, argv.data());
      ::_exit(127);  // exec failed; stderr already points at the log
    }

    ::close(task_pipe[0]);
    ::close(event_pipe[1]);
    slot.pid = pid;
    slot.task_fd = task_pipe[1];
    slot.event_fd = event_pipe[0];
    slot.alive = true;
    slot.current_task.reset();
    slot.buffer.clear();
    slot.last_heard = Clock::now();
    if (options_.verbose) {
      log::info("dist", "worker w%d generation %d spawned (pid %d)",
                slot.slot, slot.generation, static_cast<int>(pid));
    }
  }

  void close_slot(WorkerSlot& slot) {
    if (slot.task_fd >= 0) ::close(slot.task_fd);
    if (slot.event_fd >= 0) ::close(slot.event_fd);
    slot.task_fd = -1;
    slot.event_fd = -1;
    slot.alive = false;
    slot.buffer.clear();
  }

  /// Non-blocking drain of a dead worker's event pipe: the cell, done and
  /// fatal lines it managed to write before dying must be processed before
  /// the death accounting (rows that arrived are never recomputed, and a
  /// completed task is not requeued just because its worker exited).
  void drain_events(WorkerSlot& slot) {
    if (slot.event_fd < 0) return;
    const int flags = ::fcntl(slot.event_fd, F_GETFL);
    if (flags >= 0) ::fcntl(slot.event_fd, F_SETFL, flags | O_NONBLOCK);
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(slot.event_fd, chunk, sizeof chunk);
      if (n <= 0) break;
      slot.buffer.append(chunk, static_cast<std::size_t>(n));
    }
    process_lines(slot);
  }

  /// Processes a worker death: bookkeeping plus requeue/quarantine of its
  /// in-flight task. `hung` marks heartbeat-timeout kills.
  void handle_death(WorkerSlot& slot, const std::string& error, bool hung) {
    drain_events(slot);
    const std::optional<std::uint64_t> task_id = slot.current_task;
    slot.current_task.reset();
    close_slot(slot);
    if (shutting_down_) return;
    if (hung) {
      ++summary_.hang_kills;
      static metrics::Counter& hang_kills =
          metrics::counter("dist.hang_kills");
      hang_kills.add();
    } else {
      ++summary_.crashes;
      static metrics::Counter& crashes = metrics::counter("dist.crashes");
      crashes.add();
    }
    if (options_.verbose || hung) {
      log::warn("dist", "worker w%d (pid %d) died: %s", slot.slot,
                static_cast<int>(slot.pid), error.c_str());
    }
    if (!task_id) return;
    TaskState& state = tasks_.at(*task_id);
    settle(state, error);
  }

  /// A failed attempt of a task that is not finished: requeue the cells
  /// whose rows never arrived — or, when every row arrived and only the
  /// done line was lost, complete the task with nothing to redo.
  void settle(TaskState& state, const std::string& error) {
    if (state.completed || state.quarantined) return;
    if (state.task.cells.empty()) {
      complete(state);
    } else {
      fail_task(state, error);
    }
  }

  /// Reaps any slot whose process has exited (crash or injected kill).
  void reap_exited() {
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      int status = 0;
      const pid_t pid = ::waitpid(slot.pid, &status, WNOHANG);
      if (pid == slot.pid) {
        handle_death(slot, describe_exit(status), /*hung=*/false);
      }
    }
  }

  void check_heartbeats() {
    const Clock::time_point now = Clock::now();
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      const double silence = seconds_between(slot.last_heard, now);
      if (silence <= options_.heartbeat_timeout_s) continue;
      log::warn("dist",
                "worker w%d (pid %d) silent for %.1fs "
                "(timeout %.1fs); killing",
                slot.slot, static_cast<int>(slot.pid), silence,
                options_.heartbeat_timeout_s);
      ::kill(slot.pid, SIGKILL);  // works on SIGSTOPped processes too
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      handle_death(slot,
                   "no heartbeat for " + std::to_string(silence) +
                       "s (killed)",
                   /*hung=*/true);
    }
  }

  void respawn_dead() {
    if (finished_ >= tasks_.size()) return;
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) spawn(slot);
    }
  }

  // ---- task lifecycle -----------------------------------------------------

  void fail_task(TaskState& state, const std::string& error) {
    ++state.failures;
    state.last_error = error;
    if (state.failures > options_.max_task_retries) {
      quarantine(state);
      return;
    }
    ++summary_.retries;
    static metrics::Counter& retries = metrics::counter("dist.retries");
    retries.add();
    // A temporary span: an instant marker on the coordinator's track.
    trace::Span("dist", "dist.retry")
        .arg("task", static_cast<double>(state.task.id))
        .arg("failures", static_cast<double>(state.failures));
    const double delay = std::min(
        kRetryCapS,
        kRetryBaseS * std::ldexp(1.0, static_cast<int>(state.failures) - 1));
    state.eligible_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(delay));
    pending_.push_back(state.task.id);
    if (options_.verbose) {
      log::info("dist",
                "task %llu requeued with %zu cell(s) left (failure %zu, "
                "backoff %.2fs): %s",
                static_cast<unsigned long long>(state.task.id),
                state.task.cells.size(), state.failures, delay,
                error.c_str());
    }
  }

  void quarantine(TaskState& state) {
    state.quarantined = true;
    ++finished_;
    QuarantinedTask record{state.task.id, state.task.store, state.task.cells,
                           state.failures, state.last_error};
    std::string joined;
    for (const std::string& id : record.cells) {
      if (!joined.empty()) joined += ", ";
      joined += id;
    }
    log::error("dist",
               "QUARANTINED task %llu (store %s): cells %s after %zu "
               "failures (last error: %s)",
               static_cast<unsigned long long>(record.id),
               record.store.c_str(), joined.c_str(), record.failures,
               record.last_error.c_str());
    summary_.quarantined.push_back(std::move(record));
  }

  /// Writes one task line to a worker; false (with the slot torn down) when
  /// the worker died under us.
  bool send_task(WorkerSlot& slot, const TaskMessage& task) {
    const std::string line = encode_task(task);
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(slot.task_fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        // EPIPE: death discovered on write; the reaper does the accounting.
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        handle_death(slot, describe_exit(status), /*hung=*/false);
        return false;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  void dispatch() {
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive || slot.current_task) continue;
      const Clock::time_point now = Clock::now();

      std::optional<std::uint64_t> chosen;
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (tasks_.at(*it).eligible_at <= now) {
          chosen = *it;
          pending_.erase(it);
          break;
        }
      }
      if (!chosen) continue;

      if (!send_task(slot, tasks_.at(*chosen).task)) {
        pending_.push_front(*chosen);  // never dispatched; not a failure
        continue;
      }
      static metrics::Counter& dispatches =
          metrics::counter("dist.dispatches");
      dispatches.add();
      trace::Span("dist", "dist.dispatch")
          .arg("task", static_cast<double>(*chosen))
          .arg("worker", static_cast<double>(slot.slot))
          .arg("cells",
               static_cast<double>(tasks_.at(*chosen).task.cells.size()));
      slot.current_task = *chosen;
      slot.dispatch_ns = trace::now_ns();
    }
  }

  /// Appends one cell's rows to its canonical store. Worker rows are
  /// outside input headed for a durable file: only the declared keys, in
  /// declared order, of a cell the slot's task still holds are accepted.
  /// ResultStore::put does the rest: a key already stored with the same
  /// bytes (a torn earlier append of the cell) is not appended again, and
  /// one stored with different bytes stops the run. Rows arriving mean the
  /// attempt made progress, so the task's failure count starts over.
  void on_cell(WorkerSlot& slot, const EventMessage& event) {
    TaskState* state = nullptr;
    std::size_t j = 0;
    if (slot.current_task == event.task_id) {
      state = &tasks_.at(event.task_id);
      const std::vector<std::string>& cells = state->task.cells;
      j = static_cast<std::size_t>(
          std::find(cells.begin(), cells.end(), event.cell) - cells.begin());
    }
    std::vector<std::string> sent;
    for (const auto& row : event.rows) sent.push_back(row.first);
    if (state == nullptr || j == state->keys.size() || sent != state->keys[j]) {
      throw std::runtime_error(
          "safelight: worker w" + std::to_string(slot.slot) +
          " sent rows for cell '" + event.cell + "' of task " +
          std::to_string(event.task_id) +
          " that are not the declared keys of a cell its task still holds; "
          "refusing to write them to the canonical store");
    }

    trace::Span append_span("dist", "dist.append");
    const auto appended = state->store->put(event.rows);
    append_span.arg("task", static_cast<double>(event.task_id))
        .arg("rows", static_cast<double>(appended));
    const auto at = static_cast<std::ptrdiff_t>(j);
    state->task.cells.erase(state->task.cells.begin() + at);
    state->keys.erase(state->keys.begin() + at);
    state->failures = 0;
  }

  void complete(TaskState& state) {
    state.completed = true;
    ++summary_.completed;
    ++finished_;
    static metrics::Counter& completed =
        metrics::counter("dist.tasks_completed");
    completed.add();
  }

  void on_done(WorkerSlot& slot, const EventMessage& event) {
    slot.current_task.reset();
    const auto it = tasks_.find(event.task_id);
    if (it == tasks_.end()) return;
    TaskState& state = it->second;
    if (state.completed || state.quarantined) return;
    if (!state.task.cells.empty()) {
      fail_task(state, "worker reported done with " +
                           std::to_string(state.task.cells.size()) +
                           " cell(s) never sent");
      return;
    }
    complete(state);
    if (trace::armed()) {
      trace::RawEvent span;
      span.name = "dist.task";
      span.cat = "dist";
      span.start_ns = slot.dispatch_ns;
      span.dur_ns = trace::now_ns() - slot.dispatch_ns;
      span.num_args.emplace_back("task",
                                 static_cast<double>(state.task.id));
      span.num_args.emplace_back("worker", static_cast<double>(slot.slot));
      span.num_args.emplace_back("evaluated",
                                 static_cast<double>(event.evaluated));
      trace::record(std::move(span));
    }
  }

  void on_fatal(WorkerSlot& slot, const EventMessage& event) {
    slot.current_task.reset();
    const auto it = tasks_.find(event.task_id);
    if (it == tasks_.end()) return;
    settle(it->second, "worker reported: " + event.message);
  }

  void process_lines(WorkerSlot& slot) {
    while (true) {
      const std::size_t newline = slot.buffer.find('\n');
      if (newline == std::string::npos) return;
      const std::string line = slot.buffer.substr(0, newline);
      slot.buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      EventMessage event;
      try {
        event = decode_event(line);
      } catch (const std::exception& error) {
        log::warn("dist", "worker w%d sent an undecodable line (%s); ignored",
                  slot.slot, error.what());
        continue;
      }
      switch (event.type) {
        case EventMessage::Type::kHeartbeat:
          break;  // last_heard was updated by the read itself
        case EventMessage::Type::kCell:
          on_cell(slot, event);
          break;
        case EventMessage::Type::kDone:
          on_done(slot, event);
          break;
        case EventMessage::Type::kFatal:
          on_fatal(slot, event);
          break;
        case EventMessage::Type::kTrace:
          // Worker spans land under the slot's stable pid: one merged
          // fleet trace, one track per worker slot.
          trace::ingest(2 + static_cast<std::uint32_t>(slot.slot),
                        std::move(event.spans));
          break;
        case EventMessage::Type::kMetrics:
          metrics::ingest(event.metrics);
          break;
      }
      if (!slot.alive) return;  // handler tore the slot down
    }
  }

  void poll_events(int timeout_ms) {
    std::vector<struct pollfd> fds;
    std::vector<WorkerSlot*> owners;
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      fds.push_back({slot.event_fd, POLLIN, 0});
      owners.push_back(&slot);
    }
    if (fds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerSlot& slot = *owners[i];
      char chunk[4096];
      const ssize_t n = ::read(slot.event_fd, chunk, sizeof chunk);
      if (n > 0) {
        slot.last_heard = Clock::now();
        slot.buffer.append(chunk, static_cast<std::size_t>(n));
        process_lines(slot);
      } else if (n == 0) {
        // EOF: the worker exited; reap it here so the death is attributed
        // before the next dispatch.
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        handle_death(slot, describe_exit(status), /*hung=*/false);
      }
    }
  }

  void shutdown_workers() {
    shutting_down_ = true;
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) continue;
      const std::string line = encode_shutdown();
      // Best-effort; a dead worker is reaped below either way.
      [[maybe_unused]] const ssize_t n =
          ::write(slot.task_fd, line.data(), line.size());
      ::close(slot.task_fd);
      slot.task_fd = -1;
    }
    // Keep reading event pipes until EOF: workers flush their final
    // telemetry (trailing span buffer and metrics delta) between the
    // shutdown command and exit, and a payload larger than the pipe buffer
    // would deadlock a worker against a coordinator that only waitpid()s.
    // At EOF, handle_death only drains and closes while shutting down.
    const auto any_alive = [&] {
      return std::any_of(slots_.begin(), slots_.end(),
                         [](const WorkerSlot& slot) { return slot.alive; });
    };
    const Clock::time_point drain_deadline =
        Clock::now() + std::chrono::seconds(5);
    while (any_alive() && Clock::now() < drain_deadline) {
      poll_events(/*timeout_ms=*/50);
    }
    const auto reap_until = [&](Clock::time_point deadline) {
      while (Clock::now() < deadline) {
        for (WorkerSlot& slot : slots_) {
          int status = 0;
          if (slot.alive &&
              ::waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
            close_slot(slot);
          }
        }
        if (!any_alive()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return false;
    };
    if (any_alive()) {
      for (WorkerSlot& slot : slots_) {
        if (slot.alive) ::kill(slot.pid, SIGTERM);
      }
      if (!reap_until(Clock::now() + std::chrono::seconds(2))) {
        for (WorkerSlot& slot : slots_) {
          if (!slot.alive) continue;
          ::kill(slot.pid, SIGKILL);
          int status = 0;
          ::waitpid(slot.pid, &status, 0);
          close_slot(slot);
        }
      }
    }
    shutting_down_ = false;
  }

  SigpipeGuard sigpipe_;
  core::ModelZoo& zoo_;
  const DistOptions options_;
  DistSummary summary_;
  std::string log_dir_;
  std::vector<WorkerSlot> slots_;
  // The tasks of the current hand-off, and how many of them are completed
  // or quarantined.
  std::map<std::uint64_t, TaskState> tasks_;
  std::size_t finished_ = 0;
  std::deque<std::uint64_t> pending_;
  std::uint64_t next_task_id_ = 1;
  bool shutting_down_ = false;
};

QuarantinedError::QuarantinedError(std::vector<QuarantinedTask> lost)
    : std::runtime_error("safelight: " + std::to_string(lost.size()) +
                         " dist task(s) quarantined"),
      tasks(std::move(lost)) {}

Fleet::Fleet(core::ModelZoo& zoo, const DistOptions& options)
    : coordinator_(std::make_unique<Coordinator>(zoo, options)) {}

Fleet::~Fleet() = default;

void Fleet::evaluate(const core::ExperimentSpec& spec,
                     const core::ExperimentSetup& /*setup*/,
                     const std::vector<core::PreparedSweep>& sweeps) {
  coordinator_->evaluate(spec, sweeps);
}

void Fleet::finish() { coordinator_->finish(); }

}  // namespace safelight::dist
