// Tests for the `safelight serve` subsystem: HTTP parsing, spec ingestion,
// registry listing, zoo train-once contention, slot admission/cancellation,
// slots sharing the zoo's result stores, and the daemon end to end over
// real sockets.
//
// The end-to-end suite pins the serving contract of the paper sweeps: the
// bytes GET /v1/jobs/<id>/result returns are byte-identical to the JSON
// document `safelight run --json` writes for the same spec under the same
// environment (the child-process comparison below).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "core/zoo.hpp"
#include "gtest/gtest.h"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/slot_manager.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

using serve::AdmissionError;
using serve::HttpError;
using serve::HttpRequest;
using serve::Job;
using serve::JobState;
using serve::SlotManager;
using serve::SlotManagerOptions;

bool wait_until(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// A controllable experiment: runs until released or cancelled. Registered
// once in the global registry; tests reset the knobs before each use.
// ---------------------------------------------------------------------------

std::atomic<int> g_block_started{0};
std::atomic<bool> g_block_release{false};

void ensure_block_experiment() {
  static const bool registered = [] {
    core::ExperimentInfo info;
    info.name = "test_block";
    info.summary = "serve_test: spins until released or cancelled";
    info.default_seed_count = 1;
    info.sweeps = [](const core::ExperimentSpec&) {
      return std::vector<core::CellSweep>{};
    };
    info.assemble = [](const core::ExperimentSpec&,
                       const std::vector<core::CellSweep>&,
                       const std::vector<std::vector<core::SweptCell>>&) {
      return core::ExperimentResult::Payload{core::SusceptibilityReport{}};
    };
    info.resolve = [](const core::ExperimentSpec& spec,
                      core::RunContext& context) {
      g_block_started.fetch_add(1);
      context.note("test_block: spinning");
      while (!g_block_release.load()) {
        context.throw_if_cancelled("test_block");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return spec;
    };
    core::ExperimentRegistry::global().add(std::move(info));
    return true;
  }();
  (void)registered;
  g_block_started.store(0);
  g_block_release.store(false);
}

// ---------------------------------------------------------------------------
// HTTP request parsing (pure, no sockets)
// ---------------------------------------------------------------------------

TEST(ServeHttp, ParsesRequestHead) {
  const HttpRequest request = serve::parse_request_head(
      "POST /v1/jobs HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length:  42 \r\n"
      "X-Mixed-CASE: Value\r\n");
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/jobs");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.header("host"), "localhost");
  EXPECT_EQ(request.header("content-length"), "42");  // whitespace trimmed
  EXPECT_EQ(request.header("x-mixed-case"), "Value");  // names lower-cased
  EXPECT_EQ(request.header("absent"), "");
}

TEST(ServeHttp, RejectsMalformedRequestLine) {
  try {
    serve::parse_request_head("GET/nospace\r\n");
    FAIL() << "expected HttpError";
  } catch (const HttpError& error) {
    EXPECT_EQ(error.status(), 400);
  }
  EXPECT_THROW(serve::parse_request_head(""), HttpError);
  EXPECT_THROW(serve::parse_request_head("GET / HTTP/1.1\r\nbadheader\r\n"),
               HttpError);
}

TEST(ServeHttp, StatusReasonsCoverDaemonCodes) {
  EXPECT_EQ(serve::status_reason(200), "OK");
  EXPECT_EQ(serve::status_reason(202), "Accepted");
  EXPECT_EQ(serve::status_reason(400), "Bad Request");
  EXPECT_EQ(serve::status_reason(404), "Not Found");
  EXPECT_EQ(serve::status_reason(429), "Too Many Requests");
  EXPECT_EQ(serve::status_reason(503), "Service Unavailable");
  EXPECT_EQ(serve::status_reason(599), "Unknown");
}

// ---------------------------------------------------------------------------
// ExperimentSpec JSON ingestion (satellite: strict unknown-field rejection)
// ---------------------------------------------------------------------------

TEST(SpecFromJson, AbsentFieldsResolveLikeTheCli) {
  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 2;
  overrides.base_seed = 77;
  config::ScopedOverrides scoped(overrides);

  const core::ExperimentSpec spec =
      core::spec_from_json("{\"experiment\": \"susceptibility\"}");
  EXPECT_EQ(spec.experiment, "susceptibility");
  EXPECT_EQ(spec.model, nn::ModelId::kCnn1);
  EXPECT_EQ(spec.scale, Scale::kTiny);
  EXPECT_EQ(spec.seed_count, 2u);
  EXPECT_EQ(spec.base_seed, 77u);
  EXPECT_TRUE(spec.cache_dir.empty());  // store placement is the caller's
}

TEST(SpecFromJson, ExplicitFieldsOverrideTheEnvironment) {
  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 2;
  config::ScopedOverrides scoped(overrides);

  const core::ExperimentSpec spec = core::spec_from_json(
      "{\"experiment\": \"detection\", \"model\": \"resnet18\","
      " \"scale\": \"tiny\", \"seed_count\": 4, \"base_seed\": 9,"
      " \"variant\": \"L2_reg\", \"l2_strength\": 0.001,"
      " \"clean_runs\": 3, \"max_workers\": 2, \"verbose\": true}");
  EXPECT_EQ(spec.experiment, "detection");
  EXPECT_EQ(spec.model, nn::ModelId::kResNet18);
  EXPECT_EQ(spec.scale, Scale::kTiny);
  EXPECT_EQ(spec.seed_count, 4u);
  EXPECT_EQ(spec.base_seed, 9u);
  EXPECT_EQ(spec.variant, "L2_reg");
  EXPECT_FLOAT_EQ(spec.l2_strength, 0.001f);
  EXPECT_EQ(spec.clean_runs, 3u);
  EXPECT_EQ(spec.max_workers, 2u);
  EXPECT_TRUE(spec.verbose);
}

TEST(SpecFromJson, RejectsUnknownFieldLoudly) {
  try {
    core::spec_from_json(
        "{\"experiment\": \"susceptibility\", \"seedz\": 3}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown field 'seedz'"), std::string::npos)
        << message;
    // Actionable: the message lists every supported field.
    EXPECT_NE(message.find("supported fields"), std::string::npos);
    EXPECT_NE(message.find("seed_count"), std::string::npos);
  }
}

TEST(SpecFromJson, RejectsCacheDirAsUnknown) {
  EXPECT_THROW(core::spec_from_json("{\"experiment\": \"susceptibility\","
                                    " \"cache_dir\": \"/tmp/x\"}"),
               std::invalid_argument);
}

TEST(SpecFromJson, TypeMismatchNamesTheField) {
  try {
    core::spec_from_json(
        "{\"experiment\": \"susceptibility\", \"seed_count\": \"three\"}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("spec field 'seed_count'"),
              std::string::npos)
        << error.what();
  }
}

TEST(SpecFromJson, RejectsMalformedDocuments) {
  try {
    core::spec_from_json("{not json");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not valid JSON"),
              std::string::npos);
  }
  EXPECT_THROW(core::spec_from_json("[1, 2]"), std::invalid_argument);
  try {
    core::spec_from_json("{}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("missing required field 'experiment'"),
              std::string::npos);
    EXPECT_NE(message.find("susceptibility"), std::string::npos);
  }
  EXPECT_THROW(core::spec_from_json("{\"experiment\": \"no_such\"}"),
               std::invalid_argument);
  // validate() still runs: explicit invalid values are rejected too.
  EXPECT_THROW(core::spec_from_json(
                   "{\"experiment\": \"susceptibility\", \"seed_count\": 0}"),
               std::invalid_argument);
  EXPECT_THROW(core::spec_from_json("{\"experiment\": \"susceptibility\","
                                    " \"variant\": \"NoSuchVariant\"}"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry listing (satellite: `safelight list --json` schema)
// ---------------------------------------------------------------------------

TEST(RegistryListing, JsonSchemaCoversEveryExperiment) {
  const std::string text = core::registry_listing_json();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  const JsonValue doc = JsonValue::parse(text);
  ASSERT_TRUE(doc.is_object());
  const auto& experiments = doc.at("experiments").as_array();
  const auto names = core::ExperimentRegistry::global().names();
  ASSERT_EQ(experiments.size(), names.size());
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const JsonValue& entry = experiments[i];
    EXPECT_EQ(entry.at("name").as_string(), names[i]);
    EXPECT_FALSE(entry.at("summary").as_string().empty());
    EXPECT_GE(entry.at("default_seed_count").as_uint(), 1u);
    ASSERT_TRUE(entry.at("csv_files").is_array());
  }
  // The five paper sweeps are always present, in figure order.
  EXPECT_EQ(experiments[0].at("name").as_string(), "susceptibility");
  EXPECT_EQ(experiments[0].at("csv_files").as_array()[0].as_string(),
            "fig7_susceptibility");

  const auto& fields = doc.at("spec_fields").as_array();
  bool has_experiment = false;
  for (const JsonValue& field : fields) {
    EXPECT_NE(field.as_string(), "cache_dir");
    if (field.as_string() == "experiment") has_experiment = true;
  }
  EXPECT_TRUE(has_experiment);
}

// ---------------------------------------------------------------------------
// ModelZoo train-once under contention (satellite 2)
// ---------------------------------------------------------------------------

TEST(ZooContention, EightCallersTrainOnceBitwiseIdentical) {
  metrics::reset();
  metrics::arm_collection();
  const core::ExperimentSetup setup =
      core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  const core::VariantSpec variant = core::variant_by_name("Original");

  TempDir contended_dir("zoo_contended");
  core::ModelZoo contended(contended_dir.path());
  const std::uint64_t before = metrics::counter("zoo.trainings").value();

  std::vector<std::thread> threads;
  std::atomic<int> loaded{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto model = contended.get_or_train(setup, variant);
      if (model != nullptr) loaded.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(loaded.load(), 8);
  // The entry trained exactly once; seven callers waited and loaded it.
  EXPECT_EQ(metrics::counter("zoo.trainings").value() - before, 1u);

  // Deterministic training: the contended cache file is bitwise identical
  // to one produced by a sequential zoo.
  TempDir sequential_dir("zoo_sequential");
  core::ModelZoo sequential(sequential_dir.path());
  ASSERT_NE(sequential.get_or_train(setup, variant), nullptr);
  const std::string contended_bytes =
      read_file_bytes(contended.entry_path(setup, variant));
  const std::string sequential_bytes =
      read_file_bytes(sequential.entry_path(setup, variant));
  ASSERT_FALSE(contended_bytes.empty());
  EXPECT_EQ(contended_bytes, sequential_bytes);
  metrics::reset();
}

TEST(ZooContention, DistinctEntriesTrainConcurrently) {
  const core::ExperimentSetup setup =
      core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  TempDir dir("zoo_distinct");
  core::ModelZoo zoo(dir.path());
  std::atomic<int> loaded{0};
  std::vector<std::thread> threads;
  for (const char* name : {"Original", "L2_reg"}) {
    threads.emplace_back([&, name] {
      auto model = zoo.get_or_train(setup, core::variant_by_name(name));
      if (model != nullptr) loaded.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(loaded.load(), 2);
  EXPECT_TRUE(zoo.has_entry(setup, core::variant_by_name("Original")));
  EXPECT_TRUE(zoo.has_entry(setup, core::variant_by_name("L2_reg")));
}

// ---------------------------------------------------------------------------
// SlotManager admission, queueing and cancellation
// ---------------------------------------------------------------------------

TEST(SlotManagerAdmission, QueueFullRejectsWith429) {
  ensure_block_experiment();
  TempDir dir("serve_admission");
  SlotManagerOptions options;
  options.slots = 1;
  options.queue_depth = 1;
  options.zoo_dir = dir.path() + "/zoo";
  SlotManager manager(options);

  const core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("test_block");
  const auto running = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return g_block_started.load() == 1; }, 10.0));
  EXPECT_EQ(running->state(), JobState::kRunning);
  EXPECT_EQ(manager.busy_slots(), 1u);

  const auto queued = manager.submit(spec);
  EXPECT_EQ(queued->state(), JobState::kQueued);
  EXPECT_EQ(queued->slot(), -1);
  EXPECT_EQ(manager.queued_jobs(), 1u);

  // Slot busy + queue full: the third submission is never admitted.
  try {
    manager.submit(spec);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& error) {
    EXPECT_EQ(error.status(), 429);
    EXPECT_NE(std::string(error.what()).find("queue is full"),
              std::string::npos)
        << error.what();
  }

  // Cancelling the queued job terminalizes it without touching a slot.
  EXPECT_TRUE(manager.cancel(queued->id()));
  EXPECT_EQ(queued->state(), JobState::kCancelled);
  EXPECT_EQ(manager.queued_jobs(), 0u);

  // Cancelling the running job is cooperative: the flag is set here, the
  // terminal state lands when the experiment polls it.
  EXPECT_TRUE(manager.cancel(running->id()));
  ASSERT_TRUE(wait_until([&] { return running->terminal(); }, 10.0));
  EXPECT_EQ(running->state(), JobState::kCancelled);

  EXPECT_FALSE(manager.cancel("no_such_job"));
  // Idempotent DELETE: cancelling a terminal job reports true, no effect.
  EXPECT_TRUE(manager.cancel(running->id()));

  manager.drain();
  try {
    manager.submit(spec);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& error) {
    EXPECT_EQ(error.status(), 503);
  }
}

TEST(SlotManagerAdmission, JobEventsRecordTheLifecycle) {
  ensure_block_experiment();
  TempDir dir("serve_events");
  SlotManagerOptions options;
  options.slots = 1;
  options.queue_depth = 1;
  options.zoo_dir = dir.path() + "/zoo";
  SlotManager manager(options);

  const auto job = manager.submit(
      core::ExperimentRegistry::global().default_spec("test_block"));
  ASSERT_TRUE(wait_until([&] { return g_block_started.load() == 1; }, 10.0));
  g_block_release.store(true);
  ASSERT_TRUE(wait_until([&] { return job->terminal(); }, 10.0));
  EXPECT_EQ(job->state(), JobState::kDone);
  EXPECT_FALSE(job->result_json().empty());

  const std::vector<std::string> events = job->wait_events(0, 0);
  ASSERT_GE(events.size(), 4u);  // queued, running, progress, result
  std::vector<std::string> types;
  for (const std::string& line : events) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');  // NDJSON: exactly one newline per event
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    const JsonValue event = JsonValue::parse(line);
    EXPECT_EQ(event.at("job").as_string(), job->id());
    types.push_back(event.at("type").as_string());
  }
  EXPECT_EQ(types.front(), "queued");
  EXPECT_EQ(types[1], "running");
  EXPECT_EQ(types.back(), "result");
  // The result event wraps the exact result document bytes.
  const JsonValue last = JsonValue::parse(events.back());
  EXPECT_EQ(last.at("result").as_string(), job->result_json());

  // wait_events past the end of a terminal job returns the empty batch
  // immediately — the stream-complete signal.
  EXPECT_TRUE(job->wait_events(events.size(), 0).empty());
  manager.drain();
}

TEST(SlotManagerAdmission, DrainCancelsQueuedAndRunningJobs) {
  ensure_block_experiment();
  TempDir dir("serve_drain");
  SlotManagerOptions options;
  options.slots = 1;
  options.queue_depth = 2;
  options.zoo_dir = dir.path() + "/zoo";
  SlotManager manager(options);

  const core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("test_block");
  const auto running = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return g_block_started.load() == 1; }, 10.0));
  const auto queued = manager.submit(spec);

  manager.drain();  // joins the slot threads
  EXPECT_EQ(running->state(), JobState::kCancelled);
  EXPECT_EQ(queued->state(), JobState::kCancelled);
  EXPECT_TRUE(manager.draining());
  manager.drain();  // idempotent
}

// ---------------------------------------------------------------------------
// One result cache for every tenant: slots use the zoo's stores
// ---------------------------------------------------------------------------

std::vector<std::string> csv_files_under(const std::string& dir) {
  std::vector<std::string> out;
  if (!std::filesystem::exists(dir)) return out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

/// Data rows of a store file, key by key, in file order.
std::vector<std::string> stored_keys(const std::string& csv_path) {
  std::vector<std::string> keys;
  std::istringstream lines(read_file_bytes(csv_path));
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    keys.push_back(line.substr(0, line.rfind(',')));
  }
  return keys;
}

std::uint64_t counter_value(const char* name) {
  return metrics::counter(name).value();
}

TEST(SlotStores, ConcurrentIdenticalJobsShareOneStoreAndWriteEachKeyOnce) {
  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  config::ScopedOverrides scoped(overrides);
  metrics::reset();
  metrics::arm_collection();

  TempDir dir("serve_stores");
  SlotManagerOptions options;
  options.slots = 2;
  options.queue_depth = 2;
  options.zoo_dir = dir.path() + "/zoo";
  SlotManager manager(options);

  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("susceptibility");
  spec.scale = Scale::kTiny;
  spec.seed_count = 1;

  // Two identical tenants run concurrently on the two slots: same spec,
  // same zoo entry, the same store file — one shared instance of it.
  const auto first = manager.submit(spec);
  const auto second = manager.submit(spec);
  ASSERT_TRUE(wait_until(
      [&] { return first->terminal() && second->terminal(); }, 300.0));
  ASSERT_EQ(first->state(), JobState::kDone) << first->error();
  ASSERT_EQ(second->state(), JobState::kDone) << second->error();
  ASSERT_FALSE(first->result_json().empty());
  EXPECT_EQ(first->result_json(), second->result_json());

  // One store file, in the zoo, with each key on one row: the second
  // tenant's puts of a key the first already wrote (same bytes, since
  // evaluation is deterministic) appended nothing.
  EXPECT_FALSE(std::filesystem::exists(options.zoo_dir + "/serve"));
  const auto stores = csv_files_under(options.zoo_dir);
  ASSERT_EQ(stores.size(), 1u);
  EXPECT_EQ(std::filesystem::path(stores[0]).parent_path(),
            std::filesystem::path(options.zoo_dir));
  const std::vector<std::string> keys = stored_keys(stores[0]);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
  EXPECT_EQ(counter_value("store.appends"), keys.size());
  EXPECT_FALSE(std::filesystem::exists(stores[0] + ".lock"));

  // A third identical job evaluates nothing: every key is a hit.
  const std::uint64_t appends = counter_value("store.appends");
  const std::uint64_t misses = counter_value("store.lookup_misses");
  const std::uint64_t hits = counter_value("store.lookup_hits");
  const auto third = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return third->terminal(); }, 300.0));
  ASSERT_EQ(third->state(), JobState::kDone) << third->error();
  EXPECT_EQ(third->result_json(), first->result_json());
  EXPECT_EQ(counter_value("store.appends"), appends);
  EXPECT_EQ(counter_value("store.lookup_misses"), misses);
  EXPECT_EQ(counter_value("store.lookup_hits"), hits + keys.size());
  manager.drain();
  metrics::reset();
}

TEST(SlotStores, JobOnAZooACliRunWarmedAppendsNothing) {
  // The daemon reads what `safelight run` cached on the same zoo (and the
  // reverse): one cache for every path.
  TempDir dir("serve_cli_warmed");
  const std::string zoo = dir.path() + "/zoo";
  const ProcessResult cli = run_process(
      {SAFELIGHT_CLI_BIN, "run", "susceptibility", "--model", "cnn1",
       "--json"},
      {"SAFELIGHT_SCALE=tiny", "SAFELIGHT_SEEDS=1", "SAFELIGHT_ZOO=" + zoo,
       "SAFELIGHT_OUT=" + dir.path() + "/out"},
      dir.path(), 300.0);
  ASSERT_EQ(cli.exit_code, 0) << cli.stderr_text;
  const auto stores = csv_files_under(zoo);
  ASSERT_EQ(stores.size(), 1u);
  const std::string warmed = read_file_bytes(stores[0]);

  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 1;
  config::ScopedOverrides scoped(overrides);
  metrics::reset();
  metrics::arm_collection();
  SlotManagerOptions options;
  options.slots = 1;
  options.zoo_dir = zoo;
  SlotManager manager(options);
  const auto job = manager.submit(core::spec_from_json(
      "{\"experiment\": \"susceptibility\", \"model\": \"cnn1\"}"));
  ASSERT_TRUE(wait_until([&] { return job->terminal(); }, 300.0));
  ASSERT_EQ(job->state(), JobState::kDone) << job->error();
  manager.drain();

  EXPECT_EQ(counter_value("store.appends"), 0u);
  EXPECT_EQ(counter_value("store.lookup_misses"), 0u);
  EXPECT_GT(counter_value("store.lookup_hits"), 0u);
  EXPECT_EQ(read_file_bytes(stores[0]), warmed);
  EXPECT_EQ(job->result_json(),
            read_file_bytes(dir.path() + "/out/susceptibility_cnn1.json"));
  metrics::reset();
}

TEST(SlotStores, JobOnAStoreAnotherProcessHoldsFailsOnTheLock) {
  // Slots share one store instance per file within the daemon; across
  // processes each store keeps its writer lock. So one process at a time
  // writes a zoo's stores: a job whose store another live process holds
  // (say, a `safelight run` sweeping the same zoo) fails on the lock.
  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 1;
  config::ScopedOverrides scoped(overrides);
  metrics::reset();
  TempDir dir("serve_store_locked");
  SlotManagerOptions options;
  options.slots = 1;
  options.zoo_dir = dir.path() + "/zoo";
  SlotManager manager(options);
  const core::ExperimentSpec spec = core::spec_from_json(
      "{\"experiment\": \"susceptibility\", \"model\": \"cnn1\"}");

  const auto warm = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return warm->terminal(); }, 300.0));
  ASSERT_EQ(warm->state(), JobState::kDone) << warm->error();
  const auto stores = csv_files_under(options.zoo_dir);
  ASSERT_EQ(stores.size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(stores[0] + ".lock"));

  // A live writer of another process; reaped on every exit path.
  struct Holder {
    pid_t pid = ::fork();
    void reap() {
      if (pid <= 0) return;
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
    ~Holder() { reap(); }
  } holder;
  if (holder.pid == 0) {
    for (;;) pause();
  }
  ASSERT_GT(holder.pid, 0);
  const pid_t holder_pid = holder.pid;
  { std::ofstream(stores[0] + ".lock") << holder_pid << "\n"; }

  const auto blocked = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return blocked->terminal(); }, 300.0));
  EXPECT_EQ(blocked->state(), JobState::kFailed);
  EXPECT_NE(blocked->error().find("locked by live process " +
                                  std::to_string(holder_pid)),
            std::string::npos)
      << blocked->error();

  // Once that writer is gone its lock is stale: the next job takes it
  // over and reads the store.
  holder.reap();
  const auto after = manager.submit(spec);
  ASSERT_TRUE(wait_until([&] { return after->terminal(); }, 300.0));
  ASSERT_EQ(after->state(), JobState::kDone) << after->error();
  EXPECT_EQ(after->result_json(), warm->result_json());
  manager.drain();
  metrics::reset();
}

// ---------------------------------------------------------------------------
// End-to-end HTTP over real sockets
// ---------------------------------------------------------------------------

struct SimpleResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// One-shot HTTP client: connect, send, read to EOF (every daemon response
/// is Connection: close or close-delimited).
SimpleResponse http_exchange(std::uint16_t port, const std::string& request) {
  SimpleResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return response;
  response.head = raw.substr(0, split);
  response.body = raw.substr(split + 4);
  if (response.head.size() > 12 && response.head.rfind("HTTP/1.1 ", 0) == 0) {
    response.status = std::stoi(response.head.substr(9, 3));
  }
  return response;
}

SimpleResponse http_get(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "GET " + target +
                                 " HTTP/1.1\r\nHost: t\r\n"
                                 "Connection: close\r\n\r\n");
}

SimpleResponse http_post(std::uint16_t port, const std::string& target,
                         const std::string& body) {
  return http_exchange(port, "POST " + target + " HTTP/1.1\r\nHost: t\r\n" +
                                 "Content-Length: " +
                                 std::to_string(body.size()) +
                                 "\r\nConnection: close\r\n\r\n" + body);
}

SimpleResponse http_delete(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "DELETE " + target +
                                 " HTTP/1.1\r\nHost: t\r\n"
                                 "Connection: close\r\n\r\n");
}

/// In-process daemon on an ephemeral port, stopped + joined on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(const std::string& root, std::size_t slots = 2,
                         std::size_t queue_depth = 2) {
    serve::ServeOptions options;
    options.port = 0;
    options.slots = slots;
    options.queue_depth = queue_depth;
    options.zoo_dir = root + "/zoo";
    options.stop = &stop_;
    server_ = std::make_unique<serve::Server>(options);
    thread_ = std::thread([this] { exit_code_ = server_->serve(); });
  }

  ~ServerFixture() { shutdown(); }

  int shutdown() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return exit_code_;
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  std::atomic<bool> stop_{false};
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

std::string poll_job_state(std::uint16_t port, const std::string& job) {
  const SimpleResponse response = http_get(port, "/v1/jobs/" + job);
  if (response.status != 200) return "";
  return JsonValue::parse(response.body).at("state").as_string();
}

TEST(ServeEndToEnd, ResultBytesMatchTheCliRun) {
  TempDir dir("serve_e2e");
  const std::string trace_path = dir.path() + "/serve.trace.json";
  trace::init(trace_path);
  metrics::reset();
  metrics::arm_collection();

  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 1;
  config::ScopedOverrides scoped(overrides);

  std::string result_bytes;
  {
    ServerFixture fixture(dir.path());
    const std::uint16_t port = fixture.port();
    ASSERT_NE(port, 0);

    // healthz before any job: idle daemon.
    const SimpleResponse health = http_get(port, "/healthz");
    ASSERT_EQ(health.status, 200);
    EXPECT_EQ(JsonValue::parse(health.body).at("status").as_string(), "ok");

    // Submit; absent spec fields resolve through the same config chain the
    // CLI uses (tiny scale, 1 seed via the overrides above).
    const SimpleResponse submitted = http_post(
        port, "/v1/jobs",
        "{\"experiment\": \"susceptibility\", \"model\": \"cnn1\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const JsonValue accepted = JsonValue::parse(submitted.body);
    const std::string job = accepted.at("job").as_string();
    EXPECT_EQ(accepted.at("result").as_string(), "/v1/jobs/" + job +
                                                     "/result");

    ASSERT_TRUE(wait_until(
        [&] { return poll_job_state(port, job) == "done"; }, 300.0));

    // The event stream is complete NDJSON: queued first, result last, each
    // line a standalone JSON object.
    const SimpleResponse events =
        http_get(port, "/v1/jobs/" + job + "/events");
    ASSERT_EQ(events.status, 200);
    EXPECT_NE(events.head.find("application/x-ndjson"), std::string::npos);
    std::vector<std::string> types;
    std::size_t pos = 0;
    while (pos < events.body.size()) {
      const std::size_t eol = events.body.find('\n', pos);
      ASSERT_NE(eol, std::string::npos) << "unterminated NDJSON line";
      const std::string line = events.body.substr(pos, eol - pos);
      ASSERT_FALSE(line.empty()) << "blank NDJSON line";
      types.push_back(JsonValue::parse(line).at("type").as_string());
      pos = eol + 1;
    }
    ASSERT_GE(types.size(), 3u);
    EXPECT_EQ(types.front(), "queued");
    EXPECT_EQ(types.back(), "result");

    const SimpleResponse result =
        http_get(port, "/v1/jobs/" + job + "/result");
    ASSERT_EQ(result.status, 200);
    result_bytes = result.body;
    ASSERT_FALSE(result_bytes.empty());

    // The jobs index sees the finished job.
    const SimpleResponse index = http_get(port, "/v1/jobs");
    ASSERT_EQ(index.status, 200);
    const JsonValue listing = JsonValue::parse(index.body);
    ASSERT_EQ(listing.at("jobs").as_array().size(), 1u);
    EXPECT_EQ(listing.at("jobs").as_array()[0].at("state").as_string(),
              "done");

    // Metrics carry the serving counters.
    const SimpleResponse metrics_response = http_get(port, "/metrics");
    ASSERT_EQ(metrics_response.status, 200);
    EXPECT_NE(metrics_response.body.find("safelight.metrics.v1"),
              std::string::npos);
    EXPECT_NE(metrics_response.body.find("serve.jobs.submitted"),
              std::string::npos);
    EXPECT_NE(metrics_response.body.find("zoo.trainings"),
              std::string::npos);

    EXPECT_EQ(fixture.shutdown(), 130);  // the interrupted-run convention
  }

  // The serving contract: HTTP result bytes == the JSON document
  // `safelight run --json` writes for the same spec under the same
  // environment. The child loads the cached model from the same zoo, but
  // the daemon's result stores are deleted first, so it evaluates every
  // cell itself instead of replaying the daemon's values.
  const std::vector<std::string> daemon_stores =
      csv_files_under(dir.path() + "/zoo");
  ASSERT_FALSE(daemon_stores.empty());
  for (const std::string& store : daemon_stores) {
    ASSERT_TRUE(std::filesystem::remove(store)) << store;
  }
  const ProcessResult cli = run_process(
      {SAFELIGHT_CLI_BIN, "run", "susceptibility", "--model", "cnn1",
       "--json"},
      {"SAFELIGHT_SCALE=tiny", "SAFELIGHT_SEEDS=1",
       "SAFELIGHT_ZOO=" + dir.path() + "/zoo",
       "SAFELIGHT_OUT=" + dir.path() + "/out"},
      dir.path(), 300.0);
  ASSERT_EQ(cli.exit_code, 0) << cli.stderr_text;
  for (const std::string& store : daemon_stores) {
    EXPECT_TRUE(std::filesystem::exists(store)) << store;  // re-evaluated
  }
  const std::string cli_bytes =
      read_file_bytes(dir.path() + "/out/susceptibility_cnn1.json");
  ASSERT_FALSE(cli_bytes.empty());
  EXPECT_EQ(result_bytes, cli_bytes);

  // The traced run recorded per-job spans without changing the output.
  trace::flush();
  trace::reset();
  const std::string trace_bytes = read_file_bytes(trace_path);
  EXPECT_NE(trace_bytes.find("serve.job"), std::string::npos);
  EXPECT_NE(trace_bytes.find("http.POST"), std::string::npos);
  metrics::reset();
}

TEST(ServeEndToEnd, RejectsBadSpecsAndUnknownRoutes) {
  ensure_block_experiment();
  TempDir dir("serve_e2e_errors");
  ServerFixture fixture(dir.path(), /*slots=*/1, /*queue_depth=*/0);
  const std::uint16_t port = fixture.port();

  // Unknown field: 400 with the actionable field list (satellite 6 over
  // the wire).
  const SimpleResponse bad = http_post(
      port, "/v1/jobs", "{\"experiment\": \"susceptibility\", \"seedz\": 3}");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("unknown field 'seedz'"), std::string::npos)
      << bad.body;
  EXPECT_NE(bad.body.find("supported fields"), std::string::npos);

  EXPECT_EQ(http_post(port, "/v1/jobs", "{not json").status, 400);
  EXPECT_EQ(http_post(port, "/v1/jobs", "{}").status, 400);
  EXPECT_EQ(http_get(port, "/v1/jobs/j999").status, 404);
  EXPECT_EQ(http_get(port, "/no/such/route").status, 404);
  EXPECT_EQ(http_delete(port, "/v1/jobs/j999").status, 404);
  EXPECT_EQ(http_exchange(port, "PUT /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                                "Connection: close\r\n\r\n")
                .status,
            405);
  EXPECT_EQ(http_exchange(port, "garbage\r\n\r\n").status, 400);

  // Admission over the wire: one blocking job fills the only slot; with
  // queue_depth 0 the next submission answers 429 + Retry-After.
  const SimpleResponse first =
      http_post(port, "/v1/jobs", "{\"experiment\": \"test_block\"}");
  ASSERT_EQ(first.status, 202) << first.body;
  const std::string job = JsonValue::parse(first.body).at("job").as_string();
  ASSERT_TRUE(wait_until([&] { return g_block_started.load() == 1; }, 10.0));

  const SimpleResponse rejected =
      http_post(port, "/v1/jobs", "{\"experiment\": \"test_block\"}");
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.head.find("Retry-After: 1"), std::string::npos)
      << rejected.head;

  // No result while running: 409 names the state.
  const SimpleResponse early = http_get(port, "/v1/jobs/" + job + "/result");
  EXPECT_EQ(early.status, 409);
  EXPECT_NE(early.body.find("running"), std::string::npos);

  // Cooperative cancel over the wire.
  const SimpleResponse cancelled = http_delete(port, "/v1/jobs/" + job);
  ASSERT_EQ(cancelled.status, 200);
  EXPECT_EQ(JsonValue::parse(cancelled.body).at("status").as_string(),
            "cancelling");
  ASSERT_TRUE(wait_until(
      [&] { return poll_job_state(port, job) == "cancelled"; }, 10.0));
  EXPECT_EQ(http_get(port, "/v1/jobs/" + job + "/result").status, 409);
  EXPECT_EQ(fixture.shutdown(), 130);
}

TEST(ServeEndToEnd, ConcurrentMixedClientsAllReachResult) {
  TempDir dir("serve_e2e_storm");
  metrics::reset();
  metrics::arm_collection();

  config::Overrides overrides;
  overrides.scale = Scale::kTiny;
  overrides.seed_count = 1;
  config::ScopedOverrides scoped(overrides);

  // Six tenants at once, two per experiment, queueing behind two slots on
  // one cold zoo: admission, train-once contention and shared stores.
  const std::vector<std::string> experiments = {"susceptibility", "detection",
                                                "campaign"};
  constexpr std::size_t kClients = 6;
  struct ClientRun {
    SimpleResponse submitted;
    SimpleResponse events;
    SimpleResponse result;
    std::string error;
  };
  std::vector<ClientRun> runs(kClients);

  ServerFixture fixture(dir.path(), /*slots=*/2, /*queue_depth=*/kClients);
  const std::uint16_t port = fixture.port();
  ASSERT_NE(port, 0);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ClientRun& run = runs[i];
      try {
        run.submitted = http_post(port, "/v1/jobs",
                                  "{\"experiment\": \"" +
                                      experiments[i % experiments.size()] +
                                      "\", \"model\": \"cnn1\"}");
        if (run.submitted.status != 202) return;
        const std::string job =
            JsonValue::parse(run.submitted.body).at("job").as_string();
        // The event stream stays open until the job is terminal.
        run.events = http_get(port, "/v1/jobs/" + job + "/events");
        run.result = http_get(port, "/v1/jobs/" + job + "/result");
      } catch (const std::exception& e) {
        run.error = e.what();
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    const ClientRun& run = runs[i];
    ASSERT_EQ(run.error, "") << "client " << i;
    ASSERT_EQ(run.submitted.status, 202) << "client " << i << ": "
                                         << run.submitted.body;
    const std::string& stream = run.events.body;
    ASSERT_FALSE(stream.empty()) << "client " << i;
    const std::size_t last = stream.rfind('\n', stream.size() - 2);
    const std::string last_line =
        stream.substr(last == std::string::npos ? 0 : last + 1);
    EXPECT_EQ(JsonValue::parse(last_line).at("type").as_string(), "result")
        << "client " << i;
    ASSERT_EQ(run.result.status, 200) << "client " << i;
    EXPECT_FALSE(run.result.body.empty()) << "client " << i;
    // Same spec, same bytes, whichever slot served it and whether it
    // evaluated the cells or read them from the shared store.
    EXPECT_EQ(run.result.body, runs[i % experiments.size()].result.body)
        << "client " << i;
  }

  const SimpleResponse metrics_response = http_get(port, "/metrics");
  ASSERT_EQ(metrics_response.status, 200);
  EXPECT_EQ(JsonValue::parse(metrics_response.body)
                .at("counters")
                .at("serve.jobs.completed")
                .as_uint(),
            kClients);
  EXPECT_EQ(fixture.shutdown(), 130);
  metrics::reset();
}

// ---------------------------------------------------------------------------
// The real CLI as a child process: `serve` signal handling, `list --json`
// ---------------------------------------------------------------------------

TEST(ServeCli, SigtermDrainsAndExits130) {
  TempDir dir("serve_cli_sigterm");
  const ProcessResult result = run_process(
      {SAFELIGHT_CLI_BIN, "serve", "--port", "0", "--slots", "1"},
      {"SAFELIGHT_SCALE=tiny", "SAFELIGHT_ZOO=" + dir.path() + "/zoo"},
      dir.path(), /*timeout_s=*/30.0, /*kill_after_s=*/2.0, SIGTERM);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.exit_code, 130) << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("[serve] listening on 127.0.0.1:"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("[serve] stopped"), std::string::npos);
}

TEST(ServeCli, ListJsonMatchesTheLibraryListing) {
  TempDir dir("serve_cli_list");
  const ProcessResult json_run =
      run_process({SAFELIGHT_CLI_BIN, "list", "--json"}, {}, dir.path(), 30.0);
  ASSERT_EQ(json_run.exit_code, 0) << json_run.stderr_text;
  // Byte-equality only holds while this process's registry is pristine
  // (other serve tests register "test_block"; under ctest each test runs
  // in its own process, so the strong check is the one that gates).
  if (!core::ExperimentRegistry::global().contains("test_block")) {
    EXPECT_EQ(json_run.stdout_text, core::registry_listing_json());
  }
  const JsonValue listing = JsonValue::parse(json_run.stdout_text);
  EXPECT_EQ(listing.at("experiments").as_array().size(), 5u);
  EXPECT_EQ(listing.at("experiments").as_array()[0].at("name").as_string(),
            "susceptibility");

  const ProcessResult plain =
      run_process({SAFELIGHT_CLI_BIN, "list"}, {}, dir.path(), 30.0);
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_NE(plain.stdout_text.find("susceptibility"), std::string::npos);

  const ProcessResult bad = run_process(
      {SAFELIGHT_CLI_BIN, "list", "--bogus"}, {}, dir.path(), 30.0);
  EXPECT_EQ(bad.exit_code, 2);  // usage errors keep the exit-2 convention
}

}  // namespace
}  // namespace safelight
