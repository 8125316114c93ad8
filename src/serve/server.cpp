#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace safelight::serve {

namespace {

/// Splits "/v1/jobs/j1/events" into path segments without empty entries.
std::vector<std::string> split_path(const std::string& target) {
  std::vector<std::string> segments;
  std::size_t pos = 0;
  // Strip a query string; no endpoint takes one, but a client sending
  // "?pretty" should not 404 on the base route.
  const std::size_t query = target.find('?');
  const std::string path =
      query == std::string::npos ? target : target.substr(0, query);
  while (pos < path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (end > pos) segments.push_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return segments;
}

std::string job_status_json(const Job& job, bool compact) {
  JsonWriter json(compact);
  json.begin_object();
  json.key("job").value(job.id());
  json.key("experiment").value(job.spec().experiment);
  json.key("model").value(nn::to_string(job.spec().model));
  json.key("scale").value(safelight::to_string(job.spec().scale));
  json.key("state").value(to_string(job.state()));
  json.key("slot").value(static_cast<std::int64_t>(job.slot()));
  if (job.state() == JobState::kDone) {
    json.key("wall_seconds").value(job.wall_seconds(), 3);
  }
  if (job.state() == JobState::kFailed) {
    json.key("error").value(job.error());
  }
  json.key("events").value("/v1/jobs/" + job.id() + "/events");
  json.key("result").value("/v1/jobs/" + job.id() + "/result");
  json.end_object();
  return std::move(json).str();
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      manager_([&] {
        SlotManagerOptions manager_options;
        manager_options.slots = options.slots;
        manager_options.queue_depth = options.queue_depth;
        manager_options.zoo_dir = options.zoo_dir;
        return manager_options;
      }()),
      listener_(options.port) {}

Server::~Server() { shut_down(); }

void Server::shut_down() {
  stopping_.store(true);
  listener_.close();
  manager_.drain();
  // Handler threads are detached; they hold `this` only while running, so
  // wait (up to 10 s) for the count to hit zero before the members go away.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (active_handlers_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

int Server::serve() {
  std::printf("[serve] listening on 127.0.0.1:%u (slots=%zu queue=%zu zoo=%s)\n",
              static_cast<unsigned>(port()), manager_.slot_count(),
              manager_.queue_depth(), manager_.zoo().directory().c_str());
  std::fflush(stdout);

  static metrics::Counter& connections =
      metrics::counter("serve.http.connections");
  while (options_.stop == nullptr || !options_.stop->load()) {
    const int fd = listener_.accept_once(/*timeout_ms=*/200);
    if (fd < 0) continue;
    connections.add();
    active_handlers_.fetch_add(1);
    std::thread([this, fd] {
      handle_connection(fd);
      active_handlers_.fetch_sub(1);
    }).detach();
  }

  // Graceful drain: no new connections, no new admissions, running slots
  // cancelled cooperatively; streaming handlers end when their job
  // terminalizes. ResultStore flushes on every put, so nothing is lost.
  shut_down();
  std::printf("[serve] stopped (drained %zu slot(s))\n",
              manager_.slot_count());
  std::fflush(stdout);
  return 130;  // the conventional interrupted-run code, like the CLI
}

void Server::handle_connection(int fd) {
  HttpConnection connection(fd);
  static metrics::Counter& requests = metrics::counter("serve.http.requests");
  try {
    const auto request = connection.read_request();
    if (!request) return;  // peer connected and left
    requests.add();
    trace::Span span("serve", "http." + request->method);
    span.arg("target", request->target);
    handle_request(connection, *request);
  } catch (const HttpError& error) {
    write_error(connection, error.status(), error.what());
  } catch (const std::exception& error) {
    // A handler bug must answer 500, never tear down the daemon.
    log::warn("serve", "request handler failed: %s", error.what());
    write_error(connection, 500, error.what());
  }
}

void Server::handle_request(HttpConnection& connection,
                            const HttpRequest& request) {
  const std::vector<std::string> path = split_path(request.target);

  if (path.size() == 1 && path[0] == "healthz" && request.method == "GET") {
    handle_healthz(connection);
    return;
  }
  if (path.size() == 1 && path[0] == "metrics" && request.method == "GET") {
    handle_metrics(connection);
    return;
  }
  if (path.size() >= 2 && path[0] == "v1" && path[1] == "jobs") {
    if (path.size() == 2) {
      if (request.method == "POST") {
        handle_submit(connection, request);
      } else if (request.method == "GET") {
        handle_jobs_index(connection);
      } else {
        write_error(connection, 405,
                    "use POST (submit) or GET (list) on /v1/jobs");
      }
      return;
    }
    const std::string& id = path[2];
    if (path.size() == 3 && request.method == "DELETE") {
      handle_cancel(connection, id);
      return;
    }
    const std::shared_ptr<Job> job = manager_.find(id);
    if (job == nullptr) {
      write_error(connection, 404, "unknown job '" + id + "'");
      return;
    }
    if (path.size() == 3 && request.method == "GET") {
      handle_job_status(connection, *job);
      return;
    }
    if (path.size() == 4 && path[3] == "events" && request.method == "GET") {
      handle_events_stream(connection, *job);
      return;
    }
    if (path.size() == 4 && path[3] == "result" && request.method == "GET") {
      handle_result(connection, *job);
      return;
    }
  }
  write_error(connection, 404,
              "no route for " + request.method + " " + request.target);
}

void Server::handle_submit(HttpConnection& connection,
                           const HttpRequest& request) {
  core::ExperimentSpec spec;
  try {
    // Strict parse: unknown fields, type mismatches and invalid values all
    // reject here with the actionable message — the HTTP twin of the CLI's
    // exit-2 convention.
    spec = core::spec_from_json(request.body);
  } catch (const std::invalid_argument& error) {
    write_error(connection, 400, error.what());
    return;
  }
  try {
    const std::shared_ptr<Job> job = manager_.submit(spec);
    JsonWriter json;
    json.begin_object();
    json.key("job").value(job->id());
    json.key("status").value(to_string(job->state()));
    json.key("events").value("/v1/jobs/" + job->id() + "/events");
    json.key("result").value("/v1/jobs/" + job->id() + "/result");
    json.end_object();
    connection.write_response(202, "application/json",
                              std::move(json).str());
  } catch (const AdmissionError& error) {
    write_error(connection, error.status(), error.what(),
                error.status() == 429 ? "Retry-After: 1" : "");
  }
}

void Server::handle_jobs_index(HttpConnection& connection) {
  JsonWriter json;
  json.begin_object();
  json.key("slots").value(static_cast<std::uint64_t>(manager_.slot_count()));
  json.key("busy").value(static_cast<std::uint64_t>(manager_.busy_slots()));
  json.key("queue_depth")
      .value(static_cast<std::uint64_t>(manager_.queue_depth()));
  json.key("queued").value(static_cast<std::uint64_t>(manager_.queued_jobs()));
  json.key("draining").value(manager_.draining());
  json.key("jobs").begin_array();
  for (const auto& job : manager_.jobs()) {
    json.begin_object();
    json.key("job").value(job->id());
    json.key("experiment").value(job->spec().experiment);
    json.key("model").value(nn::to_string(job->spec().model));
    json.key("state").value(to_string(job->state()));
    json.key("slot").value(static_cast<std::int64_t>(job->slot()));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  connection.write_response(200, "application/json",
                            std::move(json).str());
}

void Server::handle_job_status(HttpConnection& connection, const Job& job) {
  connection.write_response(200, "application/json",
                            job_status_json(job, /*compact=*/false));
}

void Server::handle_events_stream(HttpConnection& connection, const Job& job) {
  if (!connection.begin_stream(200, "application/x-ndjson")) return;
  std::size_t index = 0;
  while (true) {
    const std::vector<std::string> batch =
        job.wait_events(index, /*timeout_ms=*/200);
    for (const std::string& line : batch) {
      if (!connection.stream_write(line)) return;  // watcher went away
    }
    index += batch.size();
    if (batch.empty()) {
      if (job.terminal()) return;  // every event delivered; stream complete
      if (!connection.peer_alive()) return;
    }
  }
}

void Server::handle_result(HttpConnection& connection, const Job& job) {
  const JobState state = job.state();
  if (state != JobState::kDone) {
    write_error(connection, 409,
                "job '" + job.id() + "' has no result (state: " +
                    to_string(state) + ")");
    return;
  }
  // The raw ExperimentResult::to_json() bytes — byte-identical to the
  // file `safelight run --json` writes for the same spec (ctest-pinned).
  connection.write_response(200, "application/json", job.result_json());
}

void Server::handle_cancel(HttpConnection& connection, const std::string& id) {
  if (!manager_.cancel(id)) {
    write_error(connection, 404, "unknown job '" + id + "'");
    return;
  }
  const std::shared_ptr<Job> job = manager_.find(id);
  JsonWriter json;
  json.begin_object();
  json.key("job").value(id);
  json.key("status").value(job->terminal() ? to_string(job->state())
                                           : "cancelling");
  json.end_object();
  connection.write_response(200, "application/json",
                            std::move(json).str());
}

void Server::handle_metrics(HttpConnection& connection) {
  connection.write_response(200, "application/json", metrics::to_json());
}

void Server::handle_healthz(HttpConnection& connection) {
  JsonWriter json;
  json.begin_object();
  json.key("status").value(manager_.draining() ? "draining" : "ok");
  json.key("slots").value(static_cast<std::uint64_t>(manager_.slot_count()));
  json.key("busy").value(static_cast<std::uint64_t>(manager_.busy_slots()));
  json.key("queued").value(static_cast<std::uint64_t>(manager_.queued_jobs()));
  json.end_object();
  connection.write_response(200, "application/json",
                            std::move(json).str());
}

bool Server::write_error(HttpConnection& connection, int status,
                         const std::string& message,
                         const std::string& extra_header) {
  JsonWriter json;
  json.begin_object();
  json.key("error").value(message);
  json.end_object();
  return connection.write_response(status, "application/json",
                                   std::move(json).str(), extra_header);
}

}  // namespace safelight::serve
