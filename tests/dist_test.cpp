// Distributed sweep evaluation: the evaluate hand-off's spec -> task
// invariant, the coordinator as the one writer of the canonical stores, and
// the coordinator/worker chaos harness (the wire protocol itself is covered by
// protocol_test.cpp, in the unit shard).
//
// The end-to-end tests spawn the real `safelight` binary (the coordinator
// re-execs it as workers via /proc/self/exe) on the tiniest deterministic
// sweep and assert the one property the whole dist layer exists for:
// *distributed output is bitwise-identical to a single-process run* — with
// healthy workers, under injected crashes (plug pulls armed inside the
// workers via --chaos), and across hung-worker kills. Worker-failure
// semantics (heartbeat-timeout reassignment, retry accounting, poison-task
// quarantine with nonzero exit and a named report) are asserted against
// the machine-parsable "[dist] summary:" line and stderr.
//
// These tests fork whole process trees; they carry the `dist` ctest label
// and stay out of the unit shard. See docs/testing.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
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
#include "dist/protocol.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

using dist::TaskMessage;

// The spec is the whole run: every sweep a registry run hands the
// RunContext evaluate hook (what the fleet ships), encoded and decoded as
// the fleet does and rebuilt the way a worker rebuilds it (dist/worker.cpp
// KeptSpec: parse the shipped spec, take the named sweep of the named
// experiment, load its variant, name its store), must name the store the
// prepare stage opened and deploy the variant the run declared. Each
// hand-off must carry exactly the cells core::pending_cells leaves over the
// store — here with one cell per store already cached — less those an
// earlier sweep of the hand-off lists in the same store, each with the
// keys its declaration lists, the only rows the coordinator accepts. The hook
// then fills the pending keys as the fleet would, so the run assembles and
// an unpinned robust_compare hands off its selection and its comparison.
TEST(DistPlan, TasksRebuildTheSpecsSetupAndVariantThroughTheWorkerPath) {
  TempDir dir("dist_plan_invariant");
  core::ModelZoo zoo(dir.path() + "/zoo");
  const auto& registry = core::ExperimentRegistry::global();
  constexpr float kL2 = 1e-3f;  // non-default, so it must cross the wire
  const std::vector<core::VariantSpec> variants = core::paper_variants(kL2);

  for (const Scale scale : {Scale::kTiny, Scale::kDefault}) {
    // Untrained zoo entries: the prepare stage only loads them (for the
    // store checksum), and the hook evaluates nothing, so the test never
    // pays for training.
    const core::ExperimentSetup setup =
        core::experiment_setup(nn::ModelId::kCnn1, scale);
    for (const core::VariantSpec& variant : variants) {
      auto model = nn::make_model(setup.model, setup.model_config);
      nn::save_model(*model, zoo.entry_path(setup, variant));
    }

    // (experiment, pinned robust variant); mitigation sweeps every variant,
    // whatever spec.variant names, and an empty robust variant selects one.
    std::vector<std::pair<std::string, std::string>> runs;
    for (const std::string& experiment : registry.names()) {
      for (const core::VariantSpec& variant : variants) {
        if (experiment == "mitigation" && !variant.is_original()) continue;
        runs.emplace_back(experiment, variant.name);
      }
    }
    runs.emplace_back("robust_compare", "");

    for (const auto& [experiment, variant] : runs) {
      SCOPED_TRACE(experiment + " / " + variant + " / " + to_string(scale));
      core::ExperimentSpec spec = registry.default_spec(experiment);
      spec.model = nn::ModelId::kCnn1;
      spec.scale = scale;
      spec.seed_count = 1;
      spec.clean_runs = 2;
      spec.variant = variant.empty() ? "Original" : variant;
      spec.l2_strength = kL2;
      spec.robust_variant = variant;
      spec.cache_dir = dir.path() + "/stores/" + experiment + "_" + variant +
                       "_" + to_string(scale);
      std::filesystem::create_directories(spec.cache_dir);

      // Cache the first cell of every declared store, so the prepare stage
      // must read the canonical store under the name the worker computes.
      std::set<std::string> warmed;
      for (const core::CellSweep& sweep :
           registry.info(experiment).sweeps(spec)) {
        const auto model =
            zoo.get_or_train(setup, sweep.variant, /*verbose=*/false);
        const std::string name = core::sweep_store_name(
            setup, spec.corruption, sweep, core::weights_checksum(*model));
        warmed.insert(name);
        core::ResultStore store(spec.cache_dir + "/" + name);
        for (const std::string& key : sweep.cells[0].keys) {
          store.put(key, 0.5);
        }
      }

      std::vector<std::string> handed;  // experiment of each hand-off
      core::RunContext context(zoo);
      context.evaluate = [&](const core::ExperimentSpec& resolved,
                             const core::ExperimentSetup& resolved_setup,
                             const std::vector<core::PreparedSweep>& sweeps) {
        handed.push_back(resolved.experiment);
        EXPECT_EQ(resolved_setup.tag(), resolved.resolved_setup().tag());
        ASSERT_EQ(sweeps.size(),
                  registry.info(resolved.experiment).sweeps(resolved).size());
        // (store, cell id) of the earlier sweeps of this hand-off.
        std::set<std::pair<std::string, std::string>> listed;
        for (const core::PreparedSweep& prepared : sweeps) {
          const std::vector<core::SweepCell>& cells = prepared.sweep->cells;
          // Exactly the pending cells of the store as it is on disk, less
          // those an earlier sweep of the same store already lists.
          std::set<std::string> cached;
          for (const auto& entry : core::read_store_entries(
                   spec.cache_dir + "/" + prepared.store_name)) {
            cached.insert(entry.key);
          }
          std::vector<std::size_t> expected_pending;
          for (const std::size_t i :
               core::pending_cells(cells, [&](const std::string& key) {
                 return cached.count(key) > 0;
               })) {
            if (listed.emplace(prepared.store_name, cells[i].id).second) {
              expected_pending.push_back(i);
            }
          }
          EXPECT_EQ(prepared.pending, expected_pending);
          if (warmed.count(prepared.store_name) && !prepared.pending.empty()) {
            EXPECT_NE(prepared.pending.front(), 0u);
          }

          TaskMessage sent{7, resolved.experiment,
                           core::spec_to_json(resolved), prepared.index,
                           prepared.store_name, {}};
          for (const std::size_t i : prepared.pending) {
            sent.cells.push_back(cells[i].id);
          }
          const TaskMessage task =
              dist::decode_task(dist::encode_task(sent));

          const core::ExperimentSpec shipped = core::spec_from_json(task.spec);
          EXPECT_EQ(shipped.experiment, task.experiment);
          const std::vector<core::CellSweep> rebuilt_sweeps =
              registry.info(task.experiment).sweeps(shipped);
          ASSERT_LT(task.sweep, rebuilt_sweeps.size());
          const core::CellSweep& rebuilt = rebuilt_sweeps[task.sweep];
          const core::VariantSpec& expected = prepared.sweep->variant;
          EXPECT_EQ(rebuilt.variant.name, expected.name);
          EXPECT_EQ(rebuilt.variant.weight_decay, expected.weight_decay);
          EXPECT_EQ(rebuilt.variant.noise_sigma, expected.noise_sigma);
          const core::ExperimentSetup shipped_setup = shipped.resolved_setup();
          const auto model =
              zoo.get_or_train(shipped_setup, rebuilt.variant, false);
          EXPECT_EQ(core::sweep_store_name(shipped_setup, shipped.corruption,
                                           rebuilt,
                                           core::weights_checksum(*model)),
                    task.store);
          ASSERT_EQ(task.cells.size(), prepared.pending.size());
          for (std::size_t j = 0; j < task.cells.size(); ++j) {
            const auto cell = std::find_if(
                rebuilt.cells.begin(), rebuilt.cells.end(),
                [&](const core::SweepCell& c) { return c.id == task.cells[j]; });
            ASSERT_NE(cell, rebuilt.cells.end()) << task.cells[j];
            EXPECT_EQ(cell->keys, cells[prepared.pending[j]].keys)
                << task.cells[j];
          }
        }
        // Fill the pending keys, as the fleet appends worker rows.
        for (const core::PreparedSweep& prepared : sweeps) {
          for (const std::size_t i : prepared.pending) {
            for (const std::string& key : prepared.sweep->cells[i].keys) {
              prepared.store->put(key, 0.5);
            }
          }
        }
      };
      registry.run(spec, context);
      const std::vector<std::string> expected_handoffs =
          variant.empty() ? std::vector<std::string>{"mitigation", experiment}
                          : std::vector<std::string>{experiment};
      EXPECT_EQ(handed, expected_handoffs);
    }
  }
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
  // Workers write no durable file: no per-slot store directory exists.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/zoo/dist")) {
    EXPECT_EQ(entry.path().filename(), "logs") << entry.path();
  }
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
  EXPECT_TRUE(spans_by_pid[1].count("dist.append"));
  bool worker_task = false;
  bool worker_beat = false;
  for (const auto& [pid, names] : spans_by_pid) {
    if (pid < 2) continue;
    worker_task = worker_task || names.count("worker.task") > 0;
    worker_beat = worker_beat || names.count("dist.heartbeat") > 0;
    // --threads 1 reaches the workers: a one-thread pool runs every job
    // inline and never drains, whatever the host's CPU count.
    EXPECT_EQ(names.count("pool.drain"), 0u)
        << "worker track " << pid << " ran a multi-thread pool";
  }
  EXPECT_TRUE(worker_task) << "no worker shipped a task-execution span";
  EXPECT_TRUE(worker_beat) << "no worker shipped a heartbeat marker";

  // Fleet metrics: worker registries merged into the coordinator's, so
  // coordinator-side dist counters and worker-side gemm counters coexist.
  // On a healthy fleet every task has exactly one owner: one dispatch per
  // task, no retries to add more.
  EXPECT_EQ(summary_count(run, "crashes"), 0u) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "hang_kills"), 0u) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "retries"), 0u) << run.proc.stdout_text;
  const JsonValue fleet = JsonValue::parse(read_file_bytes(metrics_path));
  EXPECT_EQ(fleet.at("schema").as_string(), "safelight.metrics.v1");
  EXPECT_EQ(fleet.at("counters").at("dist.dispatches").as_uint(),
            summary_count(run, "tasks"));
  EXPECT_GT(fleet.at("counters").at("gemm.calls").as_uint(), 0u);
}

/// Counter `name` of a --metrics JSON file; 0 when absent.
std::uint64_t counter_of(const std::string& metrics_path,
                         const std::string& name) {
  const JsonValue counters =
      JsonValue::parse(read_file_bytes(metrics_path)).at("counters");
  return counters.has(name) ? counters.at(name).as_uint() : 0;
}

TEST(DistRun, FleetCountsTheWorkLikeAnInProcessRun) {
  // The fleet takes the evaluate stage of the one registry run, so its
  // counters describe the work: on fresh stores every cell is a miss and
  // an append, and no key is read back from the store — exactly what the
  // in-process run counts for the same 19 cells (1 seed: the baseline
  // plus 18 scenarios).
  const std::vector<std::string> flags = {"--seeds", "1", "--metrics"};
  TempDir reference_dir("dist_counts_ref");
  std::vector<std::string> reference_flags = flags;
  reference_flags.push_back(reference_dir.path() + "/metrics.json");
  const DistRunResult reference = run_experiment(
      "susceptibility", reference_dir.path(), reference_flags, {});
  ASSERT_EQ(reference.proc.exit_code, 0) << reference.proc.stderr_text;

  TempDir dir("dist_counts");
  std::vector<std::string> dist_flags = flags;
  dist_flags.insert(dist_flags.end(),
                    {dir.path() + "/metrics.json", "--workers", "2"});
  const DistRunResult run =
      run_experiment("susceptibility", dir.path(), dist_flags, {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_EQ(run.csv_bytes, reference.csv_bytes);

  const std::string fleet = dir.path() + "/metrics.json";
  EXPECT_EQ(counter_of(fleet, "store.lookup_hits"), 0u);
  EXPECT_EQ(counter_of(fleet, "store.lookup_misses"), 19u);
  EXPECT_EQ(counter_of(fleet, "store.appends"), 19u);
  for (const char* name :
       {"store.lookup_hits", "store.lookup_misses", "store.appends",
        "store.flushes", "attack.hotspot_plans"}) {
    EXPECT_EQ(counter_of(fleet, name),
              counter_of(reference_dir.path() + "/metrics.json", name))
        << name;
  }
}

TEST(DistRun, CrashedWorkersStillShipTheCountsOfEveryDeliveredCell) {
  // A worker ships a metrics delta right behind each cell's rows, so a
  // plug pull loses only the counts of the cell in flight, which its retry
  // counts again: under chaos the fleet counts exactly the in-process
  // hotspot plans. One worker keeps the crash schedule deterministic; at
  // this seed it dies 4 times mid-task, and a delta per task counts 6 of
  // the 9 plans (one snapshot at shutdown, as before, fewer still).
  const std::vector<std::string> flags = {"--seeds", "1", "--base-seed", "4",
                                          "--metrics"};
  TempDir reference_dir("dist_crash_counts_ref");
  std::vector<std::string> reference_flags = flags;
  reference_flags.push_back(reference_dir.path() + "/metrics.json");
  const DistRunResult reference = run_experiment(
      "susceptibility", reference_dir.path(), reference_flags, {});
  ASSERT_EQ(reference.proc.exit_code, 0) << reference.proc.stderr_text;
  const std::uint64_t plans = counter_of(
      reference_dir.path() + "/metrics.json", "attack.hotspot_plans");
  EXPECT_EQ(plans, 9u);

  TempDir dir("dist_crash_counts");
  std::vector<std::string> dist_flags = flags;
  dist_flags.insert(dist_flags.end(),
                    {dir.path() + "/metrics.json", "--workers", "1",
                     "--chaos", "0.25", "--max-task-retries", "1000"});
  const DistRunResult run =
      run_experiment("susceptibility", dir.path(), dist_flags, {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "crashes"), 1u)
      << "chaos run killed no workers; the test proved nothing: "
      << run.proc.stdout_text;
  EXPECT_EQ(run.csv_bytes, reference.csv_bytes);
  EXPECT_EQ(counter_of(dir.path() + "/metrics.json", "attack.hotspot_plans"),
            plans);
}

TEST(DistRun, RunAllSharesOneFleetAndMatchesInProcessBytes) {
  // One fleet serves every experiment of the invocation: each slot is
  // spawned once (no crashes), one summary line is printed, and every
  // output file — robust_compare's two hand-offs included — matches the
  // in-process run-all byte for byte.
  const auto run_all = [](const std::string& dir,
                          const std::vector<std::string>& extra) {
    std::vector<std::string> argv = {
        SAFELIGHT_CLI_BIN, "run-all",   "--model", "cnn1",        "--scale",
        "tiny",            "--seeds",   "1",       "--threads",   "1",
        "--zoo",           dir + "/zoo", "--out",  dir + "/out",  "--json"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return run_process(argv, {}, dir, kRunTimeoutSeconds);
  };
  const auto count = [](const std::string& text, const std::string& what) {
    std::size_t n = 0;
    for (std::size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1)) {
      ++n;
    }
    return n;
  };
  TempDir reference_dir("dist_runall_ref");
  const ProcessResult reference = run_all(reference_dir.path(), {});
  ASSERT_EQ(reference.exit_code, 0) << reference.stderr_text;

  TempDir dir("dist_runall");
  const ProcessResult run =
      run_all(dir.path(), {"--workers", "2", "--verbose"});
  ASSERT_EQ(run.exit_code, 0) << run.stderr_text;
  EXPECT_EQ(count(run.stdout_text, "[dist] summary:"), 1u) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find(" crashes=0 "), std::string::npos);
  EXPECT_EQ(count(run.stderr_text, " spawned (pid "), 2u) << run.stderr_text;

  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           reference_dir.path() + "/out")) {
    ++files;
    const std::string name = entry.path().filename();
    EXPECT_EQ(read_file_bytes(dir.path() + "/out/" + name),
              read_file_bytes(entry.path()))
        << name;
  }
  EXPECT_GE(files, 12u);
}

TEST(DistRun, SecondRunIsFullyCachedAndPlansNoTasks) {
  TempDir dir("dist_cached");
  const DistRunResult first =
      run_experiment("susceptibility", dir.path(), {"--workers", "2"}, {});
  ASSERT_EQ(first.proc.exit_code, 0) << first.proc.stderr_text;
  // Same spec, same cache: the prepare stage must find every cell cached
  // and the fleet dispatch nothing.
  const DistRunResult second =
      run_experiment("susceptibility", dir.path(), {"--workers", "2"}, {});
  ASSERT_EQ(second.proc.exit_code, 0) << second.proc.stderr_text;
  EXPECT_EQ(summary_count(second, "tasks"), 0u);
  EXPECT_EQ(second.csv_bytes, reference_csv());
}

TEST(DistRun, ChaosKillsAreRetriedToBitwiseIdenticalOutput) {
  // Plug pulls armed *inside the workers*: each cell may _Exit(42) with
  // p = 0.25 just before its rows are sent. The coordinator must respawn,
  // retry and still converge on the exact reference bytes (a retry holds
  // only the cells whose rows never arrived, so progress is monotone and
  // termination guaranteed).
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
  // surviving worker or the respawned replacement.
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "2", "--heartbeat-timeout", "1"},
      {"SAFELIGHT_DIST_HANG=hotspot/CONV+FC/f0.1",
       "SAFELIGHT_DIST_HANG_ONCE=" + dir.path() + "/hang_sentinel"});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_GE(summary_count(run, "hang_kills"), 1u) << run.proc.stdout_text;
  EXPECT_GE(summary_count(run, "retries"), 1u) << run.proc.stdout_text;
  EXPECT_NE(run.proc.stderr_text.find("silent for"), std::string::npos)
      << run.proc.stderr_text;
  EXPECT_EQ(run.csv_bytes, reference_csv());
}

/// Data rows of a store file that repeat an earlier row's key.
std::vector<std::string> repeated_keys(const std::string& csv_path) {
  std::istringstream lines(read_file_bytes(csv_path));
  std::string line;
  std::set<std::string> seen;
  std::vector<std::string> repeated;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::string key = line.substr(0, line.rfind(','));
    if (!seen.insert(key).second) repeated.push_back(key);
  }
  return repeated;
}

TEST(DistRun, RequeuedTaskHoldsOnlyTheCellsWhoseRowsNeverArrived) {
  // One worker, so the first task runs its cells in declaration order: the
  // baseline, then cell 1, where the worker SIGSTOPs itself (one-shot). The
  // baseline's rows have reached the coordinator by then, so the task the
  // heartbeat kill requeues must hold every cell but the baseline, and the
  // retry must evaluate exactly those.
  const auto& registry = core::ExperimentRegistry::global();
  core::ExperimentSpec spec = registry.default_spec("susceptibility");
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.seed_count = 2;
  const std::vector<core::CellSweep> sweeps =
      registry.info("susceptibility").sweeps(spec);
  ASSERT_EQ(sweeps.size(), 1u);
  const std::string hang_cell = sweeps[0].cells.at(1).id;
  ASSERT_EQ(std::count_if(sweeps[0].cells.begin(), sweeps[0].cells.end(),
                          [&](const core::SweepCell& cell) {
                            return cell.id.find(hang_cell) !=
                                   std::string::npos;
                          }),
            1)
      << "the hang seam must match one cell only";

  TempDir dir("dist_requeue");
  const std::string trace_path = dir.path() + "/trace.json";
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--workers", "1", "--heartbeat-timeout", "1", "--trace", trace_path},
      {"SAFELIGHT_DIST_HANG=" + hang_cell,
       "SAFELIGHT_DIST_HANG_ONCE=" + dir.path() + "/hang_sentinel"});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_EQ(summary_count(run, "hang_kills"), 1u) << run.proc.stdout_text;
  EXPECT_EQ(summary_count(run, "retries"), 1u) << run.proc.stdout_text;
  EXPECT_EQ(run.csv_bytes, reference_csv());

  // Per task: the cells of each dispatch (in dispatch order), the cells
  // appended on the coordinator, and what each finished worker attempt
  // evaluated (the hung attempt ships no spans).
  std::map<std::uint64_t, std::vector<std::uint64_t>> dispatched;
  std::map<std::uint64_t, std::uint64_t> appended;
  std::map<std::uint64_t, std::vector<std::uint64_t>> evaluated;
  std::vector<std::uint64_t> retried;
  std::vector<std::pair<double, const JsonValue*>> events;
  const JsonValue doc = JsonValue::parse(read_file_bytes(trace_path));
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "X") {
      events.emplace_back(event.at("ts").as_number(), &event);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [ts, event] : events) {
    const std::string& name = event->at("name").as_string();
    if (name == "dist.dispatch") {
      dispatched[event->at("args").at("task").as_uint()].push_back(
          event->at("args").at("cells").as_uint());
    } else if (name == "dist.append") {
      ++appended[event->at("args").at("task").as_uint()];
    } else if (name == "dist.retry") {
      retried.push_back(event->at("args").at("task").as_uint());
    } else if (name == "worker.task") {
      evaluated[event->at("args").at("task").as_uint()].push_back(
          event->at("args").at("evaluated").as_uint());
    }
  }
  ASSERT_EQ(retried.size(), 1u);
  const std::uint64_t task = retried[0];
  ASSERT_EQ(dispatched[task].size(), 2u);
  const std::uint64_t planned = dispatched[task][0];
  ASSERT_GE(planned, 2u) << "the hang cell must not open its task";
  EXPECT_EQ(dispatched[task][1], planned - 1)
      << "the requeued task must hold only the cells whose rows never "
         "arrived";
  EXPECT_EQ(evaluated[task], std::vector<std::uint64_t>{planned - 1});
  std::uint64_t total_planned = 0;
  for (const auto& [id, cells] : dispatched) {
    total_planned += cells.front();
    EXPECT_EQ(appended[id], cells.front()) << "task " << id;
  }
  EXPECT_EQ(total_planned, sweeps[0].cells.size());

  // The coordinator appended every key once.
  std::size_t stores = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/zoo")) {
    if (entry.path().extension() != ".csv") continue;
    ++stores;
    EXPECT_EQ(repeated_keys(entry.path()), std::vector<std::string>{})
        << entry.path();
  }
  EXPECT_EQ(stores, 1u);
}

TEST(DistRun, ByteConflictOnOneKeyIsAHardError) {
  // A cell whose rows reach the coordinator with a key the canonical store
  // already holds under different value bytes means non-deterministic
  // evaluation or a corrupt store: the run must stop before the store is
  // touched. Set up: a finished detection store, edited so one clean cell
  // misses its `probes` row (so the cell is pending again) and holds a
  // perturbed `score` (so the worker's row conflicts).
  TempDir dir("dist_conflict");
  const DistRunResult first =
      run_experiment("detection", dir.path(), {"--workers", "1"}, {});
  ASSERT_EQ(first.proc.exit_code, 0) << first.proc.stderr_text;

  std::string store;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/zoo")) {
    if (entry.path().string().ends_with(".detect.csv")) store = entry.path();
  }
  ASSERT_FALSE(store.empty());
  std::string score_key;
  std::string probes_key;
  std::string perturbed;
  std::string edited = "key,accuracy\n";
  bool dropped = false;
  for (const core::RawStoreEntry& entry : core::read_store_entries(store)) {
    if (score_key.empty() && entry.key.starts_with("clean/c0/") &&
        entry.key.ends_with("/score")) {
      score_key = entry.key;
      probes_key = score_key.substr(0, score_key.size() - 6) + "/probes";
      char text[32];
      std::snprintf(text, sizeof text, "%.17g",
                    std::stod(entry.value) + 0.25);
      perturbed = text;
      edited += entry.key + "," + perturbed + "\n";
    } else if (entry.key == probes_key) {
      dropped = true;
    } else {
      edited += entry.key + "," + entry.value + "\n";
    }
  }
  ASSERT_FALSE(score_key.empty());
  ASSERT_TRUE(dropped) << probes_key;
  {
    std::ofstream out(store, std::ios::binary | std::ios::trunc);
    out << edited;
  }

  const DistRunResult second =
      run_experiment("detection", dir.path(), {"--workers", "1"}, {});
  EXPECT_EQ(second.proc.exit_code, 1) << second.proc.stderr_text;
  const std::string& err = second.proc.stderr_text;
  EXPECT_NE(err.find("store conflict"), std::string::npos) << err;
  EXPECT_NE(err.find(score_key), std::string::npos) << err;
  EXPECT_NE(err.find(perturbed), std::string::npos) << err;
  // Refused whole: the cell's missing row was not appended either, and the
  // coordinator released the store's writer lock on the way out.
  EXPECT_EQ(read_file_bytes(store), edited);
  EXPECT_FALSE(std::filesystem::exists(store + ".lock"));
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

TEST(DistRun, AttemptsThatDeliverRowsDoNotCountTowardQuarantine) {
  // Backoff and quarantine count only attempts in a row that delivered no
  // rows. Under this chaos seed, one worker and --max-task-retries 1, task
  // 2 dies twice, but its second attempt sends 3 of its 8 cells first:
  // counting every failure would quarantine it (exit 3) though it was
  // making progress; counting only failures without progress retries it
  // to completion and the reference bytes.
  TempDir reference_dir("dist_progress_ref");
  const DistRunResult reference = run_experiment(
      "susceptibility", reference_dir.path(), {"--base-seed", "5"}, {});
  ASSERT_EQ(reference.proc.exit_code, 0) << reference.proc.stderr_text;

  TempDir dir("dist_progress");
  const DistRunResult run = run_experiment(
      "susceptibility", dir.path(),
      {"--base-seed", "5", "--workers", "1", "--chaos", "0.05",
       "--max-task-retries", "1", "--verbose"},
      {});
  ASSERT_EQ(run.proc.exit_code, 0) << run.proc.stderr_text;
  EXPECT_EQ(summary_count(run, "quarantined"), 0u);
  EXPECT_EQ(summary_count(run, "crashes"), 2u) << run.proc.stdout_text;
  const std::string& err = run.proc.stderr_text;
  EXPECT_NE(err.find("task 2 requeued with 8 cell(s) left (failure 1,"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("task 2 requeued with 5 cell(s) left (failure 1,"),
            std::string::npos)
      << err;
  EXPECT_EQ(run.csv_bytes, reference.csv_bytes);
  EXPECT_EQ(run.json_bytes, reference.json_bytes);
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

// The detector sweeps run on the fleet like the scenario sweeps: tasks
// carry their cell ids, workers fill them under the same chaos harness, and
// the filled stores assemble to the in-process bytes with nothing left to dispatch.
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
