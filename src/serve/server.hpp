// The `safelight serve` daemon: HTTP front end over the SlotManager.
//
// Endpoint table (docs/architecture.md "Serving" has the full contract):
//
//   POST   /v1/jobs             submit an ExperimentSpec JSON -> 202 + job
//                               id (400 bad spec, 429 queue full, 503
//                               draining)
//   GET    /v1/jobs             queue state: slots, queue, every job
//   GET    /v1/jobs/<id>        one job's status document
//   GET    /v1/jobs/<id>/events NDJSON progress stream until the terminal
//                               event (the "result" event carries the full
//                               result document)
//   GET    /v1/jobs/<id>/result the raw ExperimentResult::to_json() bytes
//                               (409 until the job is done)
//   DELETE /v1/jobs/<id>        cooperative cancel
//   GET    /metrics             safelight.metrics.v1 registry snapshot
//   GET    /healthz             liveness + slot occupancy
//
// Threading: the serve loop accepts on one thread and hands each
// connection to a short-lived handler thread; handler count is tracked so
// drain can wait for them. Shutdown: the CLI's ScopedCancelScope flips the
// stop flag on SIGINT/SIGTERM, the accept loop notices within one poll
// interval, admission stops, running slots are cancelled, stores flush (a
// ResultStore flushes on every put), and serve() returns 130.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/http.hpp"
#include "serve/slot_manager.hpp"

namespace safelight::serve {

struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (tests, CI smoke).
  std::uint16_t port = 8080;
  std::size_t slots = 2;
  std::size_t queue_depth = 4;
  /// Shared zoo and result-store directory; empty = config::zoo_dir().
  std::string zoo_dir;
  /// Stop flag polled by the serve loop (the CLI wires its SIGINT/SIGTERM
  /// cancellation flag here). nullptr = run until the process dies.
  const std::atomic<bool>* stop = nullptr;
};

class Server {
 public:
  /// Binds the listener and starts the slot threads; throws
  /// std::runtime_error when the port cannot be bound.
  explicit Server(const ServeOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0).
  std::uint16_t port() const { return listener_.port(); }

  SlotManager& manager() { return manager_; }

  /// Accept loop: serves until the stop flag flips, then drains (stop
  /// admission, cancel running slots, join handlers) and returns 130 —
  /// the same interrupted-run code the CLI uses for SIGINT.
  int serve();

  /// Handles one accepted connection fd (exposed for tests that inject
  /// connections without the accept loop). Blocking; streaming requests
  /// return when the job ends or the peer disconnects.
  void handle_connection(int fd);

 private:
  /// Stops admission, closes the listener, drains the slots and waits up
  /// to 10 s for the detached handlers.
  void shut_down();
  void handle_request(HttpConnection& connection, const HttpRequest& request);
  void handle_submit(HttpConnection& connection, const HttpRequest& request);
  void handle_jobs_index(HttpConnection& connection);
  void handle_job_status(HttpConnection& connection, const Job& job);
  void handle_events_stream(HttpConnection& connection, const Job& job);
  void handle_result(HttpConnection& connection, const Job& job);
  void handle_cancel(HttpConnection& connection, const std::string& id);
  void handle_metrics(HttpConnection& connection);
  void handle_healthz(HttpConnection& connection);
  bool write_error(HttpConnection& connection, int status,
                   const std::string& message,
                   const std::string& extra_header = "");

  ServeOptions options_;
  SlotManager manager_;
  HttpListener listener_;
  std::atomic<std::size_t> active_handlers_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace safelight::serve
