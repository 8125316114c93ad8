// Distributed sweep sharding: the planner's spec -> task invariant,
// multi-writer store merge, and the coordinator/worker chaos harness (the
// wire protocol itself is covered by protocol_test.cpp, in the unit shard).
//
// The end-to-end tests spawn the real `safelight` binary (the coordinator
// re-execs it as workers via /proc/self/exe) on the tiniest deterministic
// sweep and assert the one property the whole dist layer exists for:
// *distributed output is bitwise-identical to a single-process run* — with
// healthy workers, under injected crashes (PR 6 plug pulls armed inside
// the workers via --chaos), and across hung-worker kills. Worker-failure
// semantics (heartbeat-timeout reassignment, retry accounting, poison-task
// quarantine with nonzero exit and a named report) are asserted against
// the machine-parsable "[dist] summary:" line and stderr.
//
// These tests fork whole process trees; they carry the `dist` ctest label
// and stay out of the unit shard. See docs/testing.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/scenario.hpp"
#include "common/config.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "dist/coordinator.hpp"
#include "dist/plan.hpp"
#include "dist/protocol.hpp"
#include "dist/store_merge.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

using dist::TaskMessage;

// ---------------------------------------------------------------------------
// Multi-writer store merge
// ---------------------------------------------------------------------------

void write_store(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
}

// The spec is the whole run: every task the planner sends, decoded and
// rebuilt the way a worker rebuilds it (dist/worker.cpp deploy: parse the
// shipped spec, take the named sweep of the named experiment, load its
// variant, name its store), must name the store the planner read and
// deploy the variant the in-process run declares. Together the tasks must
// cover exactly the cells core::pending_cells leaves over the experiment's
// declared sweeps — here with one cell per store already cached.
TEST(DistPlan, TasksRebuildTheSpecsSetupAndVariantThroughTheWorkerPath) {
  TempDir dir("dist_plan_invariant");
  core::ModelZoo zoo(dir.path() + "/zoo");
  const auto& registry = core::ExperimentRegistry::global();
  constexpr float kL2 = 1e-3f;  // non-default, so it must cross the wire
  const std::vector<core::VariantSpec> variants = core::paper_variants(kL2);

  for (const Scale scale : {Scale::kTiny, Scale::kDefault}) {
    // Untrained zoo entries: the planner only loads them (for the store
    // checksum), so the test never pays for training.
    const core::ExperimentSetup setup =
        core::experiment_setup(nn::ModelId::kCnn1, scale);
    for (const core::VariantSpec& variant : variants) {
      auto model = nn::make_model(setup.model, setup.model_config);
      nn::save_model(*model, zoo.entry_path(setup, variant));
    }

    for (const std::string& experiment : registry.names()) {
      for (const core::VariantSpec& variant : variants) {
        // mitigation sweeps every variant, whatever spec.variant names.
        if (experiment == "mitigation" && !variant.is_original()) continue;
        SCOPED_TRACE(experiment + " / " + variant.name + " / " +
                     to_string(scale));
        core::ExperimentSpec spec = registry.default_spec(experiment);
        spec.model = nn::ModelId::kCnn1;
        spec.scale = scale;
        spec.seed_count = 1;
        spec.clean_runs = 2;
        spec.variant = variant.name;
        spec.l2_strength = kL2;
        // Pinned, so robust_compare plans no selection sweep (which would
        // evaluate the untrained models in-process).
        spec.robust_variant = variant.name;
        spec.cache_dir = dir.path() + "/stores/" + experiment + "_" +
                         variant.name + "_" + to_string(scale);
        std::filesystem::create_directories(spec.cache_dir);
        const std::vector<core::CellSweep> declared =
            registry.info(experiment).sweeps(spec);
        ASSERT_FALSE(declared.empty());

        // Cache the first cell of every declared store, so the planner
        // must read the canonical store under the name the engine uses.
        std::vector<std::string> store_names;
        for (const core::CellSweep& sweep : declared) {
          const auto model =
              zoo.get_or_train(setup, sweep.variant, /*verbose=*/false);
          store_names.push_back(core::sweep_store_name(
              setup, spec.corruption, sweep, core::weights_checksum(*model)));
          core::ResultStore store(spec.cache_dir + "/" + store_names.back());
          for (const std::string& key : sweep.cells[0].keys) {
            store.put(key, 0.5);
          }
        }

        dist::DistPlanner planner(spec);
        std::vector<std::set<std::string>> planned(declared.size());
        // Like a worker, rebuild once per (spec document, sweep).
        std::map<std::pair<std::string, std::size_t>, std::string> rebuilt;
        while (const auto round = planner.next_round(zoo, 2)) {
          for (const TaskMessage& sent : *round) {
            const TaskMessage task =
                dist::decode_task(dist::encode_task(sent));
            EXPECT_EQ(task.experiment, experiment);
            ASSERT_LT(task.sweep, declared.size());
            std::string& store = rebuilt[{task.spec, task.sweep}];
            if (store.empty()) {
              const core::ExperimentSpec shipped =
                  core::spec_from_json(task.spec);
              const std::vector<core::CellSweep> sweeps =
                  registry.info(task.experiment).sweeps(shipped);
              ASSERT_LT(task.sweep, sweeps.size());
              const core::CellSweep& sweep = sweeps[task.sweep];
              const core::VariantSpec& expected =
                  declared[task.sweep].variant;
              EXPECT_EQ(sweep.variant.name, expected.name);
              EXPECT_EQ(sweep.variant.weight_decay, expected.weight_decay);
              EXPECT_EQ(sweep.variant.noise_sigma, expected.noise_sigma);
              const core::ExperimentSetup shipped_setup =
                  shipped.resolved_setup();
              const auto model =
                  zoo.get_or_train(shipped_setup, sweep.variant, false);
              store = core::sweep_store_name(shipped_setup, shipped.corruption,
                                             sweep,
                                             core::weights_checksum(*model));
            }
            EXPECT_EQ(store, task.store);
            EXPECT_EQ(task.store, store_names[task.sweep]);
            for (const std::string& id : task.cells) {
              EXPECT_TRUE(planned[task.sweep].insert(id).second)
                  << "cell " << id << " planned twice";
            }
          }
        }

        for (std::size_t s = 0; s < declared.size(); ++s) {
          std::set<std::string> cached;
          for (const auto& entry : core::read_store_entries(
                   spec.cache_dir + "/" + store_names[s])) {
            cached.insert(entry.key);
          }
          std::set<std::string> pending;
          for (const std::size_t i : core::pending_cells(
                   declared[s].cells, [&](const std::string& key) {
                     return cached.count(key) > 0;
                   })) {
            pending.insert(declared[s].cells[i].id);
          }
          EXPECT_FALSE(pending.count(declared[s].cells[0].id));
          EXPECT_EQ(planned[s], pending) << "sweep " << s;
        }
      }
    }
  }
}

TEST(StoreMerge, DedupsIdenticalRowsAndAppendsFreshOnes) {
  TempDir dir("merge_dedup");
  const std::string w0 = dir.path() + "/w0.csv";
  const std::string w1 = dir.path() + "/w1.csv";
  const std::string dest = dir.path() + "/dest.csv";
  // Speculative execution makes byte-identical duplicates across workers
  // the *normal* case, not a corner case.
  write_store(w0, "key,accuracy\na/n300,0.5\nb/n300,0.25\n");
  write_store(w1, "key,accuracy\nb/n300,0.25\nc/n300,0.75\n");

  const dist::MergeStats stats = dist::merge_stores({w0, w1}, dest);
  EXPECT_EQ(stats.sources, 2u);
  EXPECT_EQ(stats.appended, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(read_file_bytes(dest),
            "key,accuracy\na/n300,0.5\nb/n300,0.25\nc/n300,0.75\n");

  // Re-merging the same sources is a no-op (idempotent resume).
  const dist::MergeStats again = dist::merge_stores({w0, w1}, dest);
  EXPECT_EQ(again.appended, 0u);
  EXPECT_EQ(again.duplicates, 4u);
}

TEST(StoreMerge, ByteConflictOnOneKeyIsAHardError) {
  TempDir dir("merge_conflict");
  const std::string w0 = dir.path() + "/w0.csv";
  const std::string w1 = dir.path() + "/w1.csv";
  const std::string dest = dir.path() + "/dest.csv";
  write_store(w0, "key,accuracy\na/n300,0.5\n");
  write_store(w1, "key,accuracy\na/n300,0.5000001\n");

  try {
    dist::merge_stores({w0, w1}, dest);
    FAIL() << "conflicting values must not merge silently";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("merge conflict"), std::string::npos) << what;
    EXPECT_NE(what.find("a/n300"), std::string::npos) << what;
    EXPECT_NE(what.find("0.5000001"), std::string::npos) << what;
  }
}

TEST(StoreMerge, MissingEmptyAndTornWorkerStoresAreHandled) {
  TempDir dir("merge_torn");
  const std::string missing = dir.path() + "/never_written.csv";
  const std::string empty = dir.path() + "/empty.csv";
  const std::string torn = dir.path() + "/torn.csv";
  const std::string dest = dir.path() + "/dest.csv";
  write_store(empty, "");
  // A chaos kill mid-append leaves a torn final row; it must be skipped,
  // not merged as a mangled value.
  write_store(torn, "key,accuracy\na/n300,0.5\nb/n300,0.2");

  const dist::MergeStats stats =
      dist::merge_stores({missing, empty, torn}, dest);
  EXPECT_EQ(stats.sources, 2u);  // the missing file is not an error
  EXPECT_EQ(stats.appended, 1u);
  EXPECT_EQ(read_file_bytes(dest), "key,accuracy\na/n300,0.5\n");
}

TEST(StoreMerge, MergedFileIsALoadableResultStore) {
  TempDir dir("merge_loadable");
  const std::string w0 = dir.path() + "/w0.csv";
  const std::string dest = dir.path() + "/dest.csv";
  // Rows written by a real ResultStore (the %.17g format the pipeline
  // uses), merged, must load back bit-exactly.
  {
    core::ResultStore source(w0);
    source.put("a/n300", 1.0 / 3.0);
    source.put("baseline/n300", 0.9375);
  }
  dist::merge_stores({w0}, dest);
  core::ResultStore merged(dest);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.lookup("a/n300"), 1.0 / 3.0);
  EXPECT_EQ(merged.lookup("baseline/n300"), 0.9375);
}

// ---------------------------------------------------------------------------
// Coordinator timing
// ---------------------------------------------------------------------------

TEST(Coordinator, LivenessClockIsPinnedSteady) {
  // All heartbeat/backoff/drain bookkeeping runs on CoordinatorClock; a
  // wall clock here would let one NTP step expire every worker's heartbeat
  // window at once. The static_assert in coordinator.hpp catches a refactor
  // at compile time; this keeps the property visible in the test report.
  static_assert(dist::CoordinatorClock::is_steady,
                "coordinator liveness bookkeeping must not follow wall time");
  EXPECT_TRUE(dist::CoordinatorClock::is_steady);
}

// ---------------------------------------------------------------------------
// End-to-end coordinator/worker runs (real binary, real subprocesses)
// ---------------------------------------------------------------------------

constexpr double kRunTimeoutSeconds = 240.0;

struct DistRunResult {
  ProcessResult proc;
  std::map<std::string, std::string> summary;  // parsed "[dist] summary:" k=v
  std::string csv_bytes;   // the experiment's CSVs, in registry order
  std::string json_bytes;  // <experiment>_cnn1.json
};

/// Runs `safelight run <experiment>` (cnn1, tiny, 2 seeds, 1 thread) in
/// `dir` with extra flags/env; parses the dist summary line when present.
DistRunResult run_experiment(const std::string& experiment,
                             const std::string& dir,
                             const std::vector<std::string>& extra_flags,
                             const std::vector<std::string>& extra_env,
                             double kill_after_s = 0.0,
                             int kill_signal = 0) {
  std::vector<std::string> argv = {
      SAFELIGHT_CLI_BIN, "run",     experiment,
      "--model",         "cnn1",    "--scale",
      "tiny",            "--seeds", "2",
      "--threads",       "1",       "--zoo",
      dir + "/zoo",      "--out",   dir + "/out",
      "--json"};
  argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());

  DistRunResult result;
  result.proc = run_process(argv, extra_env, dir, kRunTimeoutSeconds,
                            kill_after_s, kill_signal);
  std::istringstream lines(result.proc.stdout_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("[dist] summary:", 0) != 0) continue;
    std::istringstream fields(line.substr(15));
    std::string field;
    while (fields >> field) {
      const std::size_t eq = field.find('=');
      if (eq != std::string::npos) {
        result.summary[field.substr(0, eq)] = field.substr(eq + 1);
      }
    }
  }
  for (const std::string& stem :
       core::ExperimentRegistry::global().info(experiment).csv_files) {
    result.csv_bytes += read_file_bytes(dir + "/out/" + stem + ".csv");
  }
  result.json_bytes =
      read_file_bytes(dir + "/out/" + experiment + "_cnn1.json");
  return result;
}

std::uint64_t summary_count(const DistRunResult& result,
                            const std::string& key) {
  const auto it = result.summary.find(key);
  return it == result.summary.end() ? 0 : std::stoull(it->second);
}

/// The single-process reference bytes every distributed variant must
/// reproduce exactly. Computed once (training included) and reused.
const DistRunResult& reference_run() {
  static const DistRunResult reference = [] {
    static TempDir dir("dist_reference");  // outlives every comparison
    DistRunResult run = run_experiment("susceptibility", dir.path(), {}, {});
    EXPECT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
    EXPECT_FALSE(run.csv_bytes.empty());
    EXPECT_FALSE(run.json_bytes.empty());
    return run;
  }();
  return reference;
}

const std::string& reference_csv() { return reference_run().csv_bytes; }
const std::string& reference_json() { return reference_run().json_bytes; }

TEST(DistRun, TwoWorkersMatchSingleProcessBitwise) {
  TempDir dir("dist_two_workers");
  const DistRunResult run =
      run_experiment("susceptibility", dir.path(), {"--workers", "2"}, {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  ASSERT_FALSE(run.summary.empty()) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "workers"), 2u);
  EXPECT_EQ(summary_count(run, "crashes"), 0u);
  EXPECT_EQ(summary_count(run, "quarantined"), 0u);
  EXPECT_GE(summary_count(run, "tasks"), 2u);
  EXPECT_EQ(summary_count(run, "completed"), summary_count(run, "tasks"));
  EXPECT_EQ(run.csv_bytes, reference_csv());
  EXPECT_EQ(run.json_bytes, reference_json());
}

TEST(DistRun, MismatchedKernelFingerprintFailsTheHandshake) {
  // A worker advertising different kernel numerics (here: the test seam
  // that fakes the hello fingerprint, standing in for a SAFELIGHT_DIST_BIN
  // binary built with different math) must be refused before any task is
  // dispatched — merging its store rows would silently mix numerics.
  TempDir dir("dist_bad_kernel");
  const DistRunResult run =
      run_experiment("susceptibility", dir.path(), {"--workers", "1"},
                     {"SAFELIGHT_DIST_FAKE_KERNEL=deadbeefdeadbeef"});
  EXPECT_NE(run.proc.exit_code, 0);
  EXPECT_NE(run.proc.stderr_text.find("deadbeefdeadbeef"), std::string::npos)
      << run.proc.stderr_text;
  EXPECT_NE(run.proc.stderr_text.find("SAFELIGHT_DIST_BIN"),
            std::string::npos)
      << run.proc.stderr_text;
  // Failed before any work: the sweep CSV was never assembled.
  EXPECT_TRUE(run.csv_bytes.empty());
}

TEST(DistRun, TracedTwoWorkerRunMergesFleetTraceAndStaysBitwise) {
  TempDir dir("dist_traced");
  const std::string trace_path = dir.path() + "/trace.json";
  const std::string metrics_path = dir.path() + "/metrics.json";
  // The small heartbeat timeout shrinks the beat interval (timeout/4) so
  // worker heartbeat markers land even in a sub-second sweep.
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "2", "--heartbeat-timeout", "0.5", "--trace", trace_path,
       "--metrics", metrics_path},
      {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  // Observability must never perturb experiment output: the traced run's
  // CSV/JSON bytes match the untraced single-process reference.
  EXPECT_EQ(run.csv_bytes, reference_csv());
  EXPECT_EQ(run.json_bytes, reference_json());

  // One merged Chrome trace: coordinator events under pid 1, each worker
  // slot under its own named pid track.
  const JsonValue doc = JsonValue::parse(read_file_bytes(trace_path));
  std::map<std::uint64_t, std::string> tracks;
  std::map<std::uint64_t, std::set<std::string>> spans_by_pid;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    const std::uint64_t pid = event.at("pid").as_uint();
    if (event.at("ph").as_string() == "M") {
      tracks[pid] = event.at("args").at("name").as_string();
    } else {
      spans_by_pid[pid].insert(event.at("name").as_string());
    }
  }
  EXPECT_EQ(tracks[1], "coordinator");
  EXPECT_EQ(tracks[2], "worker w0");
  EXPECT_EQ(tracks[3], "worker w1");
  EXPECT_TRUE(spans_by_pid[1].count("dist.dispatch")) << run.proc.stderr_text;
  EXPECT_TRUE(spans_by_pid[1].count("dist.task"));
  EXPECT_TRUE(spans_by_pid[1].count("dist.merge"));
  bool worker_task = false;
  bool worker_beat = false;
  for (const auto& [pid, names] : spans_by_pid) {
    if (pid < 2) continue;
    worker_task = worker_task || names.count("worker.task") > 0;
    worker_beat = worker_beat || names.count("dist.heartbeat") > 0;
  }
  EXPECT_TRUE(worker_task) << "no worker shipped a task-execution span";
  EXPECT_TRUE(worker_beat) << "no worker shipped a heartbeat marker";

  // Fleet metrics: worker registries merged into the coordinator's, so
  // coordinator-side dist counters and worker-side gemm counters coexist.
  const JsonValue fleet = JsonValue::parse(read_file_bytes(metrics_path));
  EXPECT_EQ(fleet.at("schema").as_string(), "safelight.metrics.v1");
  EXPECT_GE(fleet.at("counters").at("dist.dispatches").as_uint(),
            summary_count(run, "tasks"));
  EXPECT_GT(fleet.at("counters").at("gemm.calls").as_uint(), 0u);
}

TEST(DistRun, SecondRunIsFullyCachedAndPlansNoTasks) {
  TempDir dir("dist_cached");
  const DistRunResult first =
      run_experiment("susceptibility", dir.path(), {"--workers", "2"}, {});
  ASSERT_EQ(first.proc.exit_code, 0) << first.proc.stderr_text;
  // Same spec, same cache: the planner must find every cell cached and
  // dispatch nothing.
  const DistRunResult second =
      run_experiment("susceptibility", dir.path(), {"--workers", "2"}, {});
  ASSERT_EQ(second.proc.exit_code, 0) << second.proc.stderr_text;
  EXPECT_EQ(summary_count(second, "tasks"), 0u);
  EXPECT_EQ(second.csv_bytes, reference_csv());
}

TEST(DistRun, ChaosKillsAreRetriedToBitwiseIdenticalOutput) {
  // PR 6 plug pulls armed *inside the workers*: every durable worker write
  // may _Exit(42) with p = 0.25. The coordinator must respawn, retry and
  // still converge on the exact reference bytes (workers resume from their
  // own stores, so progress is monotone and termination guaranteed).
  TempDir dir("dist_chaos");
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "4", "--chaos", "0.25", "--max-task-retries", "1000"},
      {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "crashes"), 1u)
      << "chaos run killed no workers; the harness proved nothing: "
      << run.proc.stdout_text;
  EXPECT_GE(summary_count(run, "retries"), 1u);
  EXPECT_EQ(summary_count(run, "quarantined"), 0u);
  EXPECT_EQ(run.csv_bytes, reference_csv());
  EXPECT_EQ(run.json_bytes, reference_json());
}

TEST(DistRun, HungWorkerIsKilledByHeartbeatTimeoutAndWorkReassigned) {
  TempDir dir("dist_hang");
  // The worker SIGSTOPs itself at the matching scenario (one-shot via the
  // sentinel); its heartbeat falls silent, the coordinator SIGKILLs it
  // after --heartbeat-timeout, and the re-queued task completes on the
  // respawned replacement. A single worker makes this deterministic: with a
  // second worker present, work-stealing races (and usually beats) the
  // heartbeat kill — that path has its own test below.
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "1", "--heartbeat-timeout", "1"},
      {"SAFELIGHT_DIST_HANG=hotspot/CONV+FC/f0.1",
       "SAFELIGHT_DIST_HANG_ONCE=" + dir.path() + "/hang_sentinel"});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "hang_kills"), 1u) << run.proc.stdout_text;
  EXPECT_NE(run.proc.stderr_text.find("silent for"), std::string::npos)
      << run.proc.stderr_text;
  EXPECT_EQ(run.csv_bytes, reference_csv());
}

TEST(DistRun, HungTaskIsStolenByIdleWorkerBeforeAnyTimeout) {
  TempDir dir("dist_steal");
  // With the heartbeat timeout far beyond the test timeout, a hung worker
  // is never killed — the only way the sweep can finish is the idle second
  // worker speculatively duplicating the hung in-flight task. The duplicate
  // rows merge as byte-identical dedups, so the CSV still matches.
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "2", "--heartbeat-timeout", "600"},
      {"SAFELIGHT_DIST_HANG=hotspot/CONV+FC/f0.1",
       "SAFELIGHT_DIST_HANG_ONCE=" + dir.path() + "/hang_sentinel"});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "steals"), 1u) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "hang_kills"), 0u) << run.proc.stdout_text;
  EXPECT_EQ(run.csv_bytes, reference_csv());
}

TEST(DistRun, PoisonTaskIsQuarantinedAfterCappedRetriesWithNonzeroExit) {
  TempDir dir("dist_poison");
  // Scenarios matching the substring _Exit(41) deterministically — a task
  // that can never succeed. With --max-task-retries 2 it must be given up
  // after exactly 3 failures, loudly, with exit code 3.
  const std::string poison = "actuation/CONV/f0.01";
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "2", "--max-task-retries", "2"},
      {"SAFELIGHT_DIST_POISON=" + poison});
  EXPECT_EQ(run.proc.exit_code, 3) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "quarantined"), 1u) << run.proc.stdout_text;
  const std::string& err = run.proc.stderr_text;
  EXPECT_NE(err.find("QUARANTINED"), std::string::npos) << err;
  EXPECT_NE(err.find(poison), std::string::npos)
      << "quarantine report must name the lost scenarios: " << err;
  EXPECT_NE(err.find("after 3 failures"), std::string::npos) << err;
  EXPECT_NE(err.find("skipping report assembly"), std::string::npos) << err;
}

TEST(DistRun, SigtermExitsGracefullyWith130AndResumeHint) {
  TempDir dir("dist_sigterm");
  // Enough scenarios that SIGTERM lands mid-sweep; the handler must treat
  // it exactly like SIGINT: finish the scenario, flush, exit 130.
  std::vector<std::string> argv = {
      SAFELIGHT_CLI_BIN, "run",      "susceptibility",
      "--model",         "cnn1",     "--scale",
      "tiny",            "--seeds",  "40",
      "--threads",       "1",        "--zoo",
      dir.path() + "/zoo", "--out",  dir.path() + "/out"};
  const ProcessResult proc =
      run_process(argv, {}, dir.path(), kRunTimeoutSeconds,
                  /*kill_after_s=*/0.8, SIGTERM);
  ASSERT_FALSE(proc.timed_out) << proc.stderr_text;
  EXPECT_EQ(proc.exit_code, 130)
      << "signal=" << proc.term_signal << "\n" << proc.stderr_text;
  EXPECT_NE(proc.stderr_text.find("rerun the same command to resume"),
            std::string::npos)
      << proc.stderr_text;
}

// The detector sweeps shard like the scenario sweeps: tasks carry their
// cell ids, workers fill them under the same chaos harness, and the merged
// stores replay to the in-process bytes with nothing left to plan.
class DistRunSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DistRunSweep, ShardsUnderChaosToInProcessBytesAndReplansNothing) {
  const std::string experiment = GetParam();
  TempDir reference_dir("dist_sweep_ref_" + experiment);
  const DistRunResult reference =
      run_experiment(experiment, reference_dir.path(), {}, {});
  ASSERT_EQ(reference.proc.exit_code, 0) << reference.proc.stderr_text;
  ASSERT_FALSE(reference.csv_bytes.empty());
  ASSERT_FALSE(reference.json_bytes.empty());

  TempDir dir("dist_sweep_" + experiment);
  const std::vector<std::string> flags = {"--workers", "2", "--chaos", "0.25",
                                          "--max-task-retries", "1000"};
  const DistRunResult run = run_experiment(experiment, dir.path(), flags, {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  ASSERT_FALSE(run.summary.empty()) << run.proc.stdout_text;
  EXPECT_GE(summary_count(run, "tasks"), 1u) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "completed"), summary_count(run, "tasks"));
  EXPECT_EQ(summary_count(run, "quarantined"), 0u);
  EXPECT_EQ(run.csv_bytes, reference.csv_bytes);
  EXPECT_EQ(run.json_bytes, reference.json_bytes);

  const DistRunResult again = run_experiment(experiment, dir.path(), flags, {});
  ASSERT_EQ(again.proc.exit_code, 0) << again.proc.stderr_text;
  ASSERT_FALSE(again.summary.empty()) << again.proc.stdout_text;
  EXPECT_EQ(summary_count(again, "tasks"), 0u);
  EXPECT_EQ(again.csv_bytes, reference.csv_bytes);
}

INSTANTIATE_TEST_SUITE_P(DetectorSweeps, DistRunSweep,
                         ::testing::Values("detection", "campaign"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace safelight
