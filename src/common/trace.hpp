// Scoped-span tracing flushed as Chrome trace-event JSON.
//
// Every hot layer in SafeLight — thread-pool jobs, GEMM kernels, pipeline
// scenarios, detector evaluations, the dist coordinator/worker fleet —
// opens trace::Span objects around its unit of work. Disarmed (the default)
// a span site costs one relaxed atomic load, the same discipline as
// fault::ptp; armed, the span records into the calling thread's private
// buffer (no cross-thread contention on the hot path — the only lock a
// record takes is the owning thread's own, contended only by flush/drain).
//
// Arming follows the common/config precedence rule:
//
//     --trace <file>  >  SAFELIGHT_TRACE=<file>  >  disarmed
//
// flush() merges every thread buffer into one JSON document in the Chrome
// trace-event format ("X" complete events, microsecond timestamps), written
// via common/json — load it in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// Distributed runs: the coordinator passes its --trace path to each
// worker, which arms in buffering mode (init_from_config(true): no file
// written) and ships drain()ed events over the NDJSON pipe protocol; the
// coordinator ingest()s them under a per-worker pid so one merged fleet
// trace shows coordinator dispatch and worker execution on separate
// tracks. Timestamps are absolute CLOCK_MONOTONIC nanoseconds —
// machine-wide, so coordinator and worker spans share one clock — and the
// flush rebases them against the arming instant.
//
// Traced runs must stay byte-identical on all experiment CSV/JSON outputs:
// this module never touches experiment output paths, only its own file.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace safelight::trace {

/// One completed span (a Chrome "X" complete event). Timestamps are
/// absolute steady-clock nanoseconds; flush() rebases them so the trace
/// starts near t=0. `tid` is a small dense id assigned per thread in
/// registration order (main thread first), not the OS tid — deterministic
/// track numbering across runs with the same thread topology.
struct RawEvent {
  std::string name;
  std::string cat;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  /// Span arguments, shown in the Perfetto side panel. Numeric and string
  /// args are kept apart so JSON round-trips types exactly.
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// Arms tracing and installs the output file flush() writes. Clears any
/// previously buffered events. Throws std::invalid_argument on an empty
/// path.
void init(const std::string& path);

/// Arms tracing with no output file: events buffer until drain()ed.
void arm_buffering();

/// Arms from the resolved configuration (CLI > SAFELIGHT_TRACE env >
/// disarmed); the `safelight` CLI calls this after flag parsing. Disarms
/// when no path is set. With `buffer_only` (the dist worker) a set path
/// arms arm_buffering() instead: the worker ships its spans home over the
/// pipe, and only the coordinator writes the file.
void init_from_config(bool buffer_only);

/// Disarms and clears all buffered/ingested events and track names.
void reset();

/// True when armed (file or buffering mode).
bool armed();

/// True when an output file is installed (flush() would write).
bool has_output();

/// Merges every thread buffer plus all ingested foreign events into one
/// Chrome trace-event JSON document at the init() path. Returns the number
/// of span events written; 0 (and writes nothing) when no output file is
/// installed. Buffers are consumed.
std::size_t flush();

/// Steals every buffered local event (all threads). Used by the dist
/// worker to ship its buffer, and by tests; flush() uses it internally.
std::vector<RawEvent> drain();

/// Absorbs foreign events under the given Chrome pid (the coordinator
/// assigns one pid per worker slot; local events are pid 1). Timestamps
/// must be absolute steady-clock nanoseconds from this machine.
void ingest(std::uint32_t pid, std::vector<RawEvent> events);

/// Names a pid's track in the merged trace (Chrome "process_name" metadata
/// event), e.g. set_track_name(2, "worker w0").
void set_track_name(std::uint32_t pid, const std::string& name);

/// Records an already-timed span on the calling thread (tid is stamped
/// here). For spans whose lifetime crosses event-loop iterations — the
/// coordinator's dispatch-to-done task spans — where RAII doesn't fit.
void record(RawEvent event);

namespace detail {
extern std::atomic<bool> g_armed;
/// Absolute steady-clock (CLOCK_MONOTONIC) nanoseconds.
std::uint64_t now_ns();
void record_event(RawEvent&& event);
}  // namespace detail

/// Monotonic nanosecond clock shared by every span; exposed so manual
/// record() callers timestamp on the same axis.
inline std::uint64_t now_ns() { return detail::now_ns(); }

/// Scoped span: opens at construction, records at destruction. Disarmed
/// cost is one relaxed atomic load (plus a pointer zero); args on an
/// inactive span are no-ops, so call sites need no armed() checks.
class Span {
 public:
  Span(const char* cat, const char* name) {
    if (detail::g_armed.load(std::memory_order_relaxed)) open(cat, name);
  }
  Span(const char* cat, std::string name) {
    if (detail::g_armed.load(std::memory_order_relaxed)) {
      open(cat, std::move(name));
    }
  }
  ~Span() {
    if (event_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span is live (armed at construction).
  bool active() const { return event_ != nullptr; }

  Span& arg(const char* key, double v) {
    if (event_ != nullptr) add_num_arg(key, v);
    return *this;
  }
  Span& arg(const char* key, std::string v) {
    if (event_ != nullptr) add_str_arg(key, std::move(v));
    return *this;
  }

 private:
  void open(const char* cat, std::string name);
  void close();
  void add_num_arg(const char* key, double v);
  void add_str_arg(const char* key, std::string v);

  /// Heap-allocated only while armed, keeping the disarmed span trivial.
  RawEvent* event_ = nullptr;
};

}  // namespace safelight::trace
