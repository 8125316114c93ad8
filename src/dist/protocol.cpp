#include "dist/protocol.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/json.hpp"

namespace safelight::dist {

namespace {

/// %.17g: enough significant digits that strtod returns the identical
/// double — telemetry values (span args, metric sums) survive the pipe
/// unchanged.
std::string double_to_wire(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double double_from_wire(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  require(end != begin && *end == '\0',
          "dist protocol: malformed number '" + text + "'");
  return value;
}

const char* event_type_name(EventMessage::Type type) {
  switch (type) {
    case EventMessage::Type::kHello: return "hello";
    case EventMessage::Type::kHeartbeat: return "heartbeat";
    case EventMessage::Type::kDone: return "done";
    case EventMessage::Type::kTrace: return "trace";
    case EventMessage::Type::kMetrics: return "metrics";
    case EventMessage::Type::kFatal: break;
  }
  return "fatal";
}

void encode_span(JsonWriter& json, const trace::RawEvent& span) {
  json.begin_object();
  json.key("name").value(span.name);
  json.key("cat").value(span.cat);
  json.key("start_ns").value(static_cast<std::uint64_t>(span.start_ns));
  json.key("dur_ns").value(static_cast<std::uint64_t>(span.dur_ns));
  json.key("tid").value(static_cast<std::uint64_t>(span.tid));
  json.key("num").begin_object();
  for (const auto& [key, value] : span.num_args) {
    json.key(key).value(double_to_wire(value));
  }
  json.end_object();
  json.key("str").begin_object();
  for (const auto& [key, value] : span.str_args) {
    json.key(key).value(value);
  }
  json.end_object();
  json.end_object();
}

trace::RawEvent decode_span(const JsonValue& doc) {
  trace::RawEvent span;
  span.name = doc.at("name").as_string();
  span.cat = doc.at("cat").as_string();
  span.start_ns = doc.at("start_ns").as_uint();
  span.dur_ns = doc.at("dur_ns").as_uint();
  span.tid = static_cast<std::uint32_t>(doc.at("tid").as_uint());
  for (const auto& [key, value] : doc.at("num").as_object()) {
    span.num_args.emplace_back(key, double_from_wire(value.as_string()));
  }
  for (const auto& [key, value] : doc.at("str").as_object()) {
    span.str_args.emplace_back(key, value.as_string());
  }
  return span;
}

void encode_metrics(JsonWriter& json, const metrics::Snapshot& snapshot) {
  json.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    json.key(name).value(double_to_wire(value));
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, histogram] : snapshot.histograms) {
    json.key(name).begin_object();
    json.key("count").value(histogram.count);
    json.key("sum").value(double_to_wire(histogram.sum));
    json.key("min").value(double_to_wire(histogram.min));
    json.key("max").value(double_to_wire(histogram.max));
    // Sparse buckets keyed by index: this is what makes the snapshot
    // mergeable on the coordinator (bucket counts just add).
    json.key("buckets").begin_object();
    for (const auto& [index, count] : histogram.buckets) {
      json.key(std::to_string(index)).value(count);
    }
    json.end_object();
    json.end_object();
  }
  json.end_object();
}

metrics::Snapshot decode_metrics(const JsonValue& doc) {
  metrics::Snapshot snapshot;
  for (const auto& [name, value] : doc.at("counters").as_object()) {
    snapshot.counters.emplace(name, value.as_uint());
  }
  for (const auto& [name, value] : doc.at("gauges").as_object()) {
    snapshot.gauges.emplace(name, double_from_wire(value.as_string()));
  }
  for (const auto& [name, entry] : doc.at("histograms").as_object()) {
    metrics::HistogramSnapshot histogram;
    histogram.count = entry.at("count").as_uint();
    histogram.sum = double_from_wire(entry.at("sum").as_string());
    histogram.min = double_from_wire(entry.at("min").as_string());
    histogram.max = double_from_wire(entry.at("max").as_string());
    for (const auto& [index, count] : entry.at("buckets").as_object()) {
      char* end = nullptr;
      const long bucket = std::strtol(index.c_str(), &end, 10);
      require(end != index.c_str() && *end == '\0' && bucket >= 0 &&
                  bucket < metrics::kTotalBuckets,
              "dist protocol: malformed histogram bucket '" + index + "'");
      histogram.buckets.emplace(static_cast<int>(bucket), count.as_uint());
    }
    snapshot.histograms.emplace(name, std::move(histogram));
  }
  return snapshot;
}

}  // namespace

std::string encode_task(const TaskMessage& task) {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("type").value("task");
  json.key("id").value(task.id);
  json.key("experiment").value(task.experiment);
  json.key("spec").value(task.spec);
  json.key("sweep").value(static_cast<std::uint64_t>(task.sweep));
  json.key("store").value(task.store);
  json.key("cells").begin_array();
  for (const std::string& cell : task.cells) json.value(cell);
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string encode_shutdown() {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("type").value("shutdown");
  json.end_object();
  return std::move(json).str();
}

bool is_shutdown(const std::string& line) {
  return JsonValue::parse(line).at("type").as_string() == "shutdown";
}

TaskMessage decode_task(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  require(doc.at("type").as_string() == "task",
          "dist protocol: expected a task message (got type '" +
              doc.at("type").as_string() + "')");
  TaskMessage task;
  task.id = doc.at("id").as_uint();
  task.experiment = doc.at("experiment").as_string();
  task.spec = doc.at("spec").as_string();
  task.sweep = static_cast<std::size_t>(doc.at("sweep").as_uint());
  task.store = doc.at("store").as_string();
  for (const JsonValue& cell : doc.at("cells").as_array()) {
    task.cells.push_back(cell.as_string());
  }
  return task;
}

std::string encode_event(const EventMessage& event) {
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("type").value(event_type_name(event.type));
  switch (event.type) {
    case EventMessage::Type::kHello:
      json.key("pid").value(event.pid);
      json.key("backend").value(event.backend);
      json.key("kernel").value(event.kernel);
      break;
    case EventMessage::Type::kHeartbeat:
      break;
    case EventMessage::Type::kDone:
      json.key("id").value(event.task_id);
      json.key("evaluated").value(event.evaluated);
      json.key("cached").value(event.cached);
      break;
    case EventMessage::Type::kFatal:
      json.key("id").value(event.task_id);
      json.key("message").value(event.message);
      break;
    case EventMessage::Type::kTrace:
      json.key("spans").begin_array();
      for (const trace::RawEvent& span : event.spans) {
        encode_span(json, span);
      }
      json.end_array();
      break;
    case EventMessage::Type::kMetrics:
      encode_metrics(json, event.metrics);
      break;
  }
  json.end_object();
  return std::move(json).str();
}

EventMessage decode_event(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  const std::string& type = doc.at("type").as_string();
  EventMessage event;
  if (type == "hello") {
    event.type = EventMessage::Type::kHello;
    event.pid = doc.at("pid").as_uint();
    // Lenient on purpose (see EventMessage): a hello without these fields
    // decodes with them empty so the coordinator can reject the stale
    // binary with a mismatch error that names the fix.
    if (doc.has("backend")) event.backend = doc.at("backend").as_string();
    if (doc.has("kernel")) event.kernel = doc.at("kernel").as_string();
  } else if (type == "heartbeat") {
    event.type = EventMessage::Type::kHeartbeat;
  } else if (type == "done") {
    event.type = EventMessage::Type::kDone;
    event.task_id = doc.at("id").as_uint();
    event.evaluated = doc.at("evaluated").as_uint();
    event.cached = doc.at("cached").as_uint();
  } else if (type == "fatal") {
    event.type = EventMessage::Type::kFatal;
    event.task_id = doc.at("id").as_uint();
    event.message = doc.at("message").as_string();
  } else if (type == "trace") {
    event.type = EventMessage::Type::kTrace;
    for (const JsonValue& entry : doc.at("spans").as_array()) {
      event.spans.push_back(decode_span(entry));
    }
  } else if (type == "metrics") {
    event.type = EventMessage::Type::kMetrics;
    event.metrics = decode_metrics(doc);
  } else {
    fail_argument("dist protocol: unknown event type '" + type + "'");
  }
  return event;
}

}  // namespace safelight::dist
