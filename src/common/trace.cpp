#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace safelight::trace {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// Chrome pid of events recorded in this process; the coordinator ingests
/// worker events under pids >= 2.
constexpr std::uint32_t kLocalPid = 1;

/// Per-thread event buffer. Appends lock only the owning thread's mutex —
/// uncontended except at the flush/drain instant — so recording threads
/// never serialize against each other.
struct ThreadBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::vector<RawEvent> events;
};

struct Global {
  std::mutex mu;
  /// Registered once per thread, kept for the process lifetime so cached
  /// thread_local pointers never dangle across init()/reset() cycles.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
  /// (pid, event) pairs absorbed from workers.
  std::vector<std::pair<std::uint32_t, RawEvent>> foreign;
  std::map<std::uint32_t, std::string> track_names;
  std::string path;
  std::uint64_t base_ns = 0;
};

Global& global() {
  static Global g;
  return g;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    b->tid = g.next_tid++;
    g.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void clear_buffers_locked(Global& g) {
  for (const auto& buffer : g.buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
  }
  g.foreign.clear();
  g.track_names.clear();
}

void arm(const std::string& path) {
  Global& g = global();
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    clear_buffers_locked(g);
    g.path = path;
    g.base_ns = detail::now_ns();
    // Default local track name; the dist coordinator overwrites it with
    // "coordinator" when worker tracks join the trace.
    if (!path.empty()) g.track_names[kLocalPid] = "safelight";
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
}

/// Microseconds with nanosecond resolution, rebased against `base`.
double to_us(std::uint64_t ns, std::uint64_t base) {
  return ns <= base ? 0.0 : static_cast<double>(ns - base) / 1000.0;
}

void write_event(JsonWriter& json, std::uint32_t pid, const RawEvent& e,
                 std::uint64_t base) {
  json.begin_object();
  json.key("name").value(e.name);
  json.key("cat").value(e.cat);
  json.key("ph").value("X");
  json.key("ts").value(to_us(e.start_ns, base), 3);
  json.key("dur").value(static_cast<double>(e.dur_ns) / 1000.0, 3);
  json.key("pid").value(static_cast<std::uint64_t>(pid));
  json.key("tid").value(static_cast<std::uint64_t>(e.tid));
  if (!e.num_args.empty() || !e.str_args.empty()) {
    json.key("args").begin_object();
    for (const auto& [key, v] : e.num_args) json.key(key).value(v, 6);
    for (const auto& [key, v] : e.str_args) json.key(key).value(v);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

namespace detail {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_event(RawEvent&& event) {
  ThreadBuffer& buffer = thread_buffer();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

}  // namespace detail

void Span::open(const char* cat, std::string name) {
  event_ = new RawEvent;
  event_->cat = cat;
  event_->name = std::move(name);
  event_->start_ns = detail::now_ns();
}

void Span::close() {
  event_->dur_ns = detail::now_ns() - event_->start_ns;
  detail::record_event(std::move(*event_));
  delete event_;
  event_ = nullptr;
}

void Span::add_num_arg(const char* key, double v) {
  event_->num_args.emplace_back(key, v);
}

void Span::add_str_arg(const char* key, std::string v) {
  event_->str_args.emplace_back(key, std::move(v));
}

void init(const std::string& path) {
  if (path.empty()) {
    throw std::invalid_argument("trace::init requires a non-empty path");
  }
  arm(path);
}

void arm_buffering() { arm(""); }

void init_from_config(bool buffer_only) {
  const std::string path = config::trace_path();
  if (path.empty()) {
    reset();
  } else if (buffer_only) {
    arm_buffering();
  } else {
    init(path);
  }
}

void reset() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mu);
  clear_buffers_locked(g);
  g.path.clear();
  g.base_ns = 0;
}

bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

bool has_output() {
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mu);
  return !g.path.empty();
}

void record(RawEvent event) { detail::record_event(std::move(event)); }

std::vector<RawEvent> drain() {
  Global& g = global();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    buffers = g.buffers;
  }
  std::vector<RawEvent> out;
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    for (auto& event : buffer->events) out.push_back(std::move(event));
    buffer->events.clear();
  }
  return out;
}

void ingest(std::uint32_t pid, std::vector<RawEvent> events) {
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mu);
  for (auto& event : events) g.foreign.emplace_back(pid, std::move(event));
}

void set_track_name(std::uint32_t pid, const std::string& name) {
  Global& g = global();
  const std::lock_guard<std::mutex> lock(g.mu);
  g.track_names[pid] = name;
}

std::size_t flush() {
  Global& g = global();
  std::string path;
  std::uint64_t base = 0;
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    path = g.path;
    base = g.base_ns;
  }
  if (path.empty()) return 0;

  std::vector<std::pair<std::uint32_t, RawEvent>> all;
  for (auto& event : drain()) all.emplace_back(kLocalPid, std::move(event));
  std::map<std::uint32_t, std::string> track_names;
  {
    const std::lock_guard<std::mutex> lock(g.mu);
    for (auto& foreign : g.foreign) all.push_back(std::move(foreign));
    g.foreign.clear();
    track_names = g.track_names;
  }
  // Deterministic event order: by track, then start time, parents (longer
  // duration) before their children at equal start.
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.tid != b.second.tid) return a.second.tid < b.second.tid;
    if (a.second.start_ns != b.second.start_ns) {
      return a.second.start_ns < b.second.start_ns;
    }
    return a.second.dur_ns > b.second.dur_ns;
  });

  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const auto& [pid, event] : all) write_event(json, pid, event, base);
  for (const auto& [pid, name] : track_names) {
    json.begin_object();
    json.key("name").value("process_name");
    json.key("ph").value("M");
    json.key("pid").value(static_cast<std::uint64_t>(pid));
    json.key("tid").value(static_cast<std::uint64_t>(0));
    json.key("args").begin_object();
    json.key("name").value(name);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("displayTimeUnit").value("ms");
  json.end_object();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "cannot open trace output file '" + path + "'");
  const std::string text = std::move(json).str();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.put('\n');
  out.flush();
  require(out.good(), "failed writing trace output file '" + path + "'");
  return all.size();
}

}  // namespace safelight::trace
