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
#include "core/zoo.hpp"
#include "common/config.hpp"
#include "dist/plan.hpp"
#include "dist/protocol.hpp"
#include "dist/store_merge.hpp"
#include "nn/backend.hpp"

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

/// Round-trip exact decimal text of a double flag value.
std::string flag_number(double value) {
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
  bool idle = false;
  std::optional<std::uint64_t> current_task;
  std::string buffer;  // partial protocol line
  Clock::time_point last_heard{};
};

struct TaskState {
  TaskMessage task;
  std::size_t failures = 0;
  std::string last_error;
  Clock::time_point eligible_at{};  // backoff gate for re-dispatch
  std::size_t assigned = 0;         // live workers running this task
  bool speculated = false;          // one work-stealing duplicate max
  bool completed = false;
  bool quarantined = false;
  // Trace bookkeeping: the dispatch->done "dist.task" span crosses event-
  // loop iterations, so its start is parked here.
  std::uint64_t dispatch_ns = 0;
  int dispatch_slot = -1;
};

class Coordinator {
 public:
  Coordinator(const core::ExperimentSpec& spec, core::ModelZoo& zoo,
              const DistOptions& options, DistSummary& summary)
      : spec_(spec),
        zoo_(zoo),
        options_(options),
        summary_(summary),
        planner_(spec) {
    require(options_.workers >= 1, "run_distributed: workers must be >= 1");
    // The fingerprint every worker hello must match: identical across
    // hosts and backend variants for a conforming binary, different only
    // when the kernel math differs (nn/backend.hpp).
    expected_kernel_ = nn::backend::kernel_fingerprint();
    binary_ = config::dist_bin();

    dist_dir_ = spec_.cache_dir + "/dist";
    std::filesystem::create_directories(dist_dir_ + "/logs");
    slots_.resize(options_.workers);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].slot = static_cast<int>(i);
      std::filesystem::create_directories(slot_store_dir(slots_[i]));
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

  DistStatus run() {
    const Clock::time_point start = Clock::now();
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
    DistStatus status = DistStatus::kComplete;
    while (auto tasks = planner_.next_round(zoo_, options_.workers)) {
      ++summary_.rounds;
      if (tasks->empty()) continue;
      run_round(*tasks);
      if (!summary_.quarantined.empty()) {
        // A later round planned on top of a quarantined one would silently
        // recompute the lost cells in-process; stop loudly instead.
        status = DistStatus::kQuarantined;
        break;
      }
    }
    shutdown_workers();
    summary_.workers = options_.workers;
    summary_.wall_seconds = seconds_between(start, Clock::now());
    std::printf(
        "[dist] summary: workers=%zu tasks=%zu completed=%zu retries=%zu "
        "steals=%zu hang_kills=%zu crashes=%zu quarantined=%zu rounds=%zu "
        "merged_rows=%zu merge_duplicates=%zu wall=%.2fs\n",
        summary_.workers, summary_.tasks, summary_.completed,
        summary_.retries, summary_.steals, summary_.hang_kills,
        summary_.crashes, summary_.quarantined.size(), summary_.rounds,
        summary_.merged_rows, summary_.merge_duplicates,
        summary_.wall_seconds);
    std::fflush(stdout);
    return status;
  }

 private:
  std::string slot_store_dir(const WorkerSlot& slot) const {
    return dist_dir_ + "/w" + std::to_string(slot.slot);
  }

  // ---- process management -------------------------------------------------

  /// A worker's whole configuration, as flags: under flag > env precedence
  /// no SAFELIGHT_* value the worker inherits can override them.
  std::vector<std::string> worker_args(const WorkerSlot& slot) const {
    std::vector<std::string> args = {
        binary_, "worker", "--store-dir", slot_store_dir(slot), "--zoo",
        zoo_.directory(), "--threads", std::to_string(config::threads()),
        // "auto" stays "auto": each node picks the best variant its own CPU
        // supports, which is safe because conforming variants are bitwise-
        // identical (and the hello handshake enforces "conforming").
        "--backend", config::backend(), "--heartbeat-timeout",
        flag_number(options_.heartbeat_timeout_s),
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
                   "--fault-prob", flag_number(options_.chaos_kill_prob),
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

    const std::string log_path =
        dist_dir_ + "/logs/w" + std::to_string(slot.slot) + ".log";
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
      ::execv(binary_.c_str(), argv.data());
      ::_exit(127);  // exec failed; stderr already points at the log
    }

    ::close(task_pipe[0]);
    ::close(event_pipe[1]);
    slot.pid = pid;
    slot.task_fd = task_pipe[1];
    slot.event_fd = event_pipe[0];
    slot.alive = true;
    slot.idle = true;
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
    slot.idle = false;
    slot.buffer.clear();
  }

  /// Non-blocking drain of a dead worker's event pipe: a done/fatal line it
  /// managed to write before dying must be processed before the death
  /// accounting (a completed task is not requeued just because its worker
  /// exited afterwards).
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
    if (state.assigned > 0) --state.assigned;
    if (!state.completed && !state.quarantined && state.assigned == 0) {
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
    if (round_finished_ >= round_total_) return;
    for (WorkerSlot& slot : slots_) {
      if (!slot.alive) spawn(slot);
    }
  }

  // ---- task lifecycle -----------------------------------------------------

  void fail_task(TaskState& state, const std::string& error) {
    ++state.failures;
    state.last_error = error;
    state.speculated = false;
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
      log::info("dist", "task %llu requeued (failure %zu, backoff %.2fs): %s",
                static_cast<unsigned long long>(state.task.id),
                state.failures, delay, error.c_str());
    }
  }

  void quarantine(TaskState& state) {
    state.quarantined = true;
    ++round_finished_;
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
      if (!slot.alive || !slot.idle) continue;
      const Clock::time_point now = Clock::now();

      std::optional<std::uint64_t> chosen;
      bool speculative = false;
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (tasks_.at(*it).eligible_at <= now) {
          chosen = *it;
          pending_.erase(it);
          break;
        }
      }
      if (!chosen && pending_.empty()) {
        // Work-stealing: duplicate the oldest in-flight task once. A
        // straggler (or a worker about to die) no longer gates the round.
        for (auto& [id, state] : tasks_) {
          if (!state.completed && !state.quarantined && state.assigned > 0 &&
              !state.speculated) {
            chosen = id;
            speculative = true;
            break;
          }
        }
      }
      if (!chosen) continue;

      TaskState& state = tasks_.at(*chosen);
      if (!send_task(slot, state.task)) {
        if (!speculative && !state.completed && !state.quarantined) {
          pending_.push_front(*chosen);  // never dispatched; not a failure
        }
        continue;
      }
      ++state.assigned;
      static metrics::Counter& dispatches =
          metrics::counter("dist.dispatches");
      dispatches.add();
      state.dispatch_ns = trace::now_ns();
      state.dispatch_slot = slot.slot;
      trace::Span("dist", "dist.dispatch")
          .arg("task", static_cast<double>(state.task.id))
          .arg("worker", static_cast<double>(slot.slot));
      if (speculative) {
        state.speculated = true;
        ++summary_.steals;
        static metrics::Counter& steals = metrics::counter("dist.steals");
        steals.add();
        trace::Span("dist", "dist.steal")
            .arg("task", static_cast<double>(state.task.id))
            .arg("worker", static_cast<double>(slot.slot));
        if (options_.verbose) {
          log::info("dist", "task %llu speculatively duplicated on w%d",
                    static_cast<unsigned long long>(*chosen), slot.slot);
        }
      }
      slot.current_task = *chosen;
      slot.idle = false;
    }
  }

  /// Startup handshake: a worker advertising different kernel numerics is
  /// a hard error before any task reaches it. Retrying would fail the same
  /// way (the mismatch is a property of the binary, not the task), and
  /// letting it run would merge store rows computed with different math —
  /// so this throws out of the event loop instead of going through the
  /// requeue machinery.
  void check_hello(const WorkerSlot& slot, const EventMessage& event) {
    if (event.kernel == expected_kernel_) {
      if (options_.verbose) {
        log::info("dist", "worker w%d hello: backend %s, kernel %s",
                  slot.slot, event.backend.c_str(), event.kernel.c_str());
      }
      return;
    }
    const std::string advertised =
        event.kernel.empty()
            ? "no kernel fingerprint (binary predates the compute-backend "
              "registry)"
            : "kernel " + event.kernel + " (backend '" + event.backend + "')";
    const std::string message =
        "worker w" + std::to_string(slot.slot) + " (" + binary_ +
        ") advertises " + advertised + " but the coordinator expects kernel " +
        expected_kernel_ +
        "; SAFELIGHT_DIST_BIN points at a binary whose GEMM numerics "
        "differ, and merging its results would poison the stores — rebuild "
        "the worker binary from the same sources";
    log::error("dist", "%s", message.c_str());
    throw std::runtime_error(message);
  }

  void on_done(WorkerSlot& slot, const EventMessage& event) {
    slot.current_task.reset();
    slot.idle = true;
    const auto it = tasks_.find(event.task_id);
    if (it == tasks_.end()) return;
    TaskState& state = it->second;
    if (state.assigned > 0) --state.assigned;
    if (state.completed || state.quarantined) return;
    state.completed = true;
    ++summary_.completed;
    ++round_finished_;
    static metrics::Counter& completed =
        metrics::counter("dist.tasks_completed");
    completed.add();
    if (trace::armed()) {
      trace::RawEvent span;
      span.name = "dist.task";
      span.cat = "dist";
      span.start_ns = state.dispatch_ns;
      span.dur_ns = trace::now_ns() - state.dispatch_ns;
      span.num_args.emplace_back("task",
                                 static_cast<double>(state.task.id));
      span.num_args.emplace_back("worker",
                                 static_cast<double>(state.dispatch_slot));
      span.num_args.emplace_back("evaluated",
                                 static_cast<double>(event.evaluated));
      span.num_args.emplace_back("cached",
                                 static_cast<double>(event.cached));
      trace::record(std::move(span));
    }
  }

  void on_fatal(WorkerSlot& slot, const EventMessage& event) {
    slot.current_task.reset();
    slot.idle = true;
    const auto it = tasks_.find(event.task_id);
    if (it == tasks_.end()) return;
    TaskState& state = it->second;
    if (state.assigned > 0) --state.assigned;
    if (!state.completed && !state.quarantined && state.assigned == 0) {
      fail_task(state, "worker reported: " + event.message);
    }
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
        case EventMessage::Type::kHello:
          check_hello(slot, event);
          break;
        case EventMessage::Type::kHeartbeat:
          break;  // last_heard was updated by the read itself
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
        // before the next dispatch round.
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        handle_death(slot, describe_exit(status), /*hung=*/false);
      }
    }
  }

  // ---- rounds -------------------------------------------------------------

  void run_round(const std::vector<TaskMessage>& round_tasks) {
    summary_.tasks += round_tasks.size();
    round_total_ = round_tasks.size();
    round_finished_ = 0;
    std::vector<std::string> stores;
    for (const TaskMessage& task : round_tasks) {
      if (std::find(stores.begin(), stores.end(), task.store) ==
          stores.end()) {
        stores.push_back(task.store);
      }
      TaskState state;
      state.task = task;
      pending_.push_back(task.id);
      tasks_.emplace(task.id, std::move(state));
    }
    // The planner may have spent a while training/merging since the last
    // event read; do not count that silence against the workers.
    const Clock::time_point round_start = Clock::now();
    for (WorkerSlot& slot : slots_) {
      if (slot.alive) slot.last_heard = round_start;
    }

    bool cancelled = false;
    while (round_finished_ < round_total_) {
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

    if (cancelled) shutdown_workers();
    merge_round(stores);  // partial results survive a cancel
    if (cancelled) throw core::ExperimentCancelled(spec_.experiment);
  }

  /// Folds every slot's copy of each store file into the canonical one.
  void merge_round(const std::vector<std::string>& stores) {
    trace::Span merge_span("dist", "dist.merge");
    merge_span.arg("stores", static_cast<double>(stores.size()));
    static metrics::Counter& merged_rows =
        metrics::counter("dist.merged_rows");
    static metrics::Counter& merge_duplicates =
        metrics::counter("dist.merge_duplicates");
    for (const std::string& store : stores) {
      std::vector<std::string> sources;
      for (const WorkerSlot& slot : slots_) {
        sources.push_back(slot_store_dir(slot) + "/" + store);
      }
      const MergeStats stats =
          merge_stores(sources, spec_.cache_dir + "/" + store);
      summary_.merged_rows += stats.appended;
      summary_.merge_duplicates += stats.duplicates;
      merged_rows.add(stats.appended);
      merge_duplicates.add(stats.duplicates);
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
    // telemetry (trailing span buffer, one metrics snapshot) between the
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

  const core::ExperimentSpec& spec_;
  core::ModelZoo& zoo_;
  const DistOptions& options_;
  DistSummary& summary_;
  DistPlanner planner_;
  std::string binary_;
  std::string expected_kernel_;
  std::string dist_dir_;
  std::vector<WorkerSlot> slots_;
  std::map<std::uint64_t, TaskState> tasks_;  // ordered: oldest-first steal
  std::deque<std::uint64_t> pending_;
  std::size_t round_total_ = 0;
  std::size_t round_finished_ = 0;
  bool shutting_down_ = false;
};

}  // namespace

DistStatus run_distributed(const core::ExperimentSpec& spec,
                           core::ModelZoo& zoo, const DistOptions& options,
                           DistSummary& summary) {
  SigpipeGuard sigpipe;
  Coordinator coordinator(spec, zoo, options, summary);
  return coordinator.run();
}

}  // namespace safelight::dist
