// Tests for the cell-sweep engine, the scenario sweep on top of it and the
// result store: fan-out determinism (parallel == serial == repeated run,
// under any grid order), one clean prefix build per boundary per sweep,
// resume-after-interrupt, mid-sweep cancellation of every cell sweep
// through the persistent store, per-key pending and per-id dedup, one
// owning cell id per store key (in every registry sweep), and
// clean-baseline deduplication.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"
#include "core/susceptibility.hpp"
#include "test_util.hpp"

namespace safelight::core {
namespace {

ExperimentSetup tiny_setup() {
  return experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
}

/// Spec of a tiny cnn1 sweep; an empty cache_dir keeps stores in memory.
ExperimentSpec tiny_spec(const std::string& cache_dir = "",
                         std::size_t max_workers = 0) {
  ExperimentSpec spec;
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.cache_dir = cache_dir;
  spec.max_workers = max_workers;
  return spec;
}

/// The scenario sweep of `variant` over `grid`, declared and run: cell 0
/// is the clean baseline, cell i + 1 is grid[i].
std::vector<SweptCell> sweep_variant(
    const ExperimentSpec& spec, const RunContext& context,
    const VariantSpec& variant,
    const std::vector<attack::AttackScenario>& grid) {
  return sweep_cells(
      spec, context,
      scenario_sweep(spec, spec.resolved_setup(), variant, grid));
}

/// Scenario cells (the baseline excluded) the sweep evaluated rather than
/// read from the store.
std::size_t fresh_scenarios(const std::vector<SweptCell>& swept) {
  return static_cast<std::size_t>(
      std::count_if(swept.begin() + 1, swept.end(),
                    [](const SweptCell& cell) { return cell.fresh; }));
}

/// The one store file in `dir` whose name ends in `suffix`; empty (and a
/// test failure) unless there is exactly one.
std::string only_store_file(const std::string& dir,
                            const std::string& suffix = ".csv") {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().ends_with(suffix)) {
      found.push_back(entry.path().string());
    }
  }
  EXPECT_EQ(found.size(), 1u) << dir;
  return found.size() == 1 ? found[0] : "";
}

std::vector<attack::AttackScenario> small_grid(std::size_t seeds = 2) {
  return attack::scenario_grid(
      {attack::AttackVector::kActuation, attack::AttackVector::kHotspot},
      {attack::AttackTarget::kBothBlocks}, {0.05, 0.10}, seeds, 100);
}

// ------------------------------------------------------------ writer lock

TEST(StoreWriterLock, SecondLiveWriterFailsFastNamingTheOwner) {
  TempDir dir("store_lock");
  const std::string path = dir.path() + "/store.csv";
  ResultStore first(path);
  EXPECT_TRUE(std::filesystem::exists(path + ".lock"));
  try {
    ResultStore second(path);
    FAIL() << "second live writer must not acquire the lock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("locked by live process"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(::getpid())), std::string::npos)
        << what;
    EXPECT_NE(what.find(path + ".lock"), std::string::npos) << what;
  }
}

TEST(StoreWriterLock, ReleasedOnDestructionAndReacquirable) {
  TempDir dir("store_lock_release");
  const std::string path = dir.path() + "/store.csv";
  { ResultStore store(path); }
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
  testing::internal::CaptureStderr();
  ResultStore reopened(path);
  // A clean handover is silent: no stale-takeover warning.
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_TRUE(std::filesystem::exists(path + ".lock"));
}

TEST(StoreWriterLock, StaleLockFromDeadWriterIsTakenOverWithWarning) {
  TempDir dir("store_lock_stale");
  const std::string path = dir.path() + "/store.csv";
  // A crashed writer never runs destructors: fabricate its leftover lock
  // with a pid that is guaranteed dead (fork + _Exit + waitpid = reaped).
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) std::_Exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  { std::ofstream(path + ".lock") << child << "\n"; }

  testing::internal::CaptureStderr();
  ResultStore store(path);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("taking over stale lock"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find(std::to_string(child)), std::string::npos) << warning;
  store.put("k", 0.5);
  EXPECT_TRUE(store.contains("k"));
}

TEST(StoreWriterLock, UnparsableLockBodyReadsAsStale) {
  TempDir dir("store_lock_garbage");
  const std::string path = dir.path() + "/store.csv";
  { std::ofstream(path + ".lock") << "not-a-pid\n"; }
  testing::internal::CaptureStderr();
  ResultStore store(path);  // must not throw
  EXPECT_NE(testing::internal::GetCapturedStderr().find("stale lock"),
            std::string::npos);
}

TEST(StoreWriterLock, InMemoryStoreTakesNoLock) {
  ResultStore a("");
  ResultStore b("");  // two in-memory stores coexist: nothing to lock
  a.put("k", 1.0);
  EXPECT_FALSE(b.contains("k"));
}

// ------------------------------------------------------- raw entry reading

TEST(ReadStoreEntries, ReturnsRawBytesSkipsJunkLaterDuplicateWins) {
  TempDir dir("read_entries");
  const std::string path = dir.path() + "/store.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "key,accuracy\n"          // header: skipped
        << "a/1,0.5\n"               // kept
        << "not a row\n"             // malformed: skipped
        << "b,with,commas/2,0.25\n"  // key itself has commas: kept
        << "a/1,0.75\n"              // duplicate: later value wins, in place
        << "torn/3,0.1";             // no newline: torn tail, skipped
  }
  const auto entries = read_store_entries(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "a/1");
  EXPECT_EQ(entries[0].value, "0.75");  // raw bytes, exactly as written
  EXPECT_EQ(entries[1].key, "b,with,commas/2");
  EXPECT_EQ(entries[1].value, "0.25");
  // Read-only: the torn tail is still on disk afterwards.
  std::ifstream in(path, std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("torn/3,0.1"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));  // and lock-free
}

TEST(ReadStoreEntries, MissingFileReadsAsEmpty) {
  EXPECT_TRUE(read_store_entries("/nonexistent/store.csv").empty());
}

TEST(ReadStoreEntries, RoundTripsResultStoreOutputBytes) {
  TempDir dir("read_entries_roundtrip");
  const std::string path = dir.path() + "/store.csv";
  {
    ResultStore store(path);
    store.put("k/1", 197.0 / 300.0);
  }
  const auto entries = read_store_entries(path);
  ASSERT_EQ(entries.size(), 1u);
  char expected[32];
  std::snprintf(expected, sizeof(expected), "%.17g", 197.0 / 300.0);
  EXPECT_EQ(entries[0].value, expected);
}

// ------------------------------------------------------------ result store

TEST(ResultStore, InMemoryPutLookup) {
  ResultStore store("");
  EXPECT_FALSE(store.lookup("a").has_value());
  store.put("a", 0.5);
  store.put("b", 0.25);
  ASSERT_TRUE(store.lookup("a").has_value());
  EXPECT_DOUBLE_EQ(*store.lookup("a"), 0.5);
  EXPECT_TRUE(store.contains("b"));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ResultStore, PersistsAndResumes) {
  TempDir dir("result_store");
  const std::string path = dir.path() + "/store.csv";
  {
    ResultStore store(path);
    store.put("x/1", 0.75);
    store.put("x/2", 0.5);
  }
  // A new instance (fresh process in real life) resumes from disk.
  ResultStore resumed(path);
  EXPECT_EQ(resumed.size(), 2u);
  ASSERT_TRUE(resumed.lookup("x/1").has_value());
  EXPECT_NEAR(*resumed.lookup("x/1"), 0.75, 1e-9);
}

TEST(ResultStore, ToleratesTornTrailingRow) {
  TempDir dir("result_store_torn");
  const std::string path = dir.path() + "/store.csv";
  {
    ResultStore store(path);
    store.put("good/1", 0.5);
    store.put("good/2", 0.25);
  }
  // Simulate a mid-write kill: append a torn, value-less final line.
  {
    std::ofstream out(path, std::ios::app);
    out << "torn/3,0.1";  // no newline; then truncate mid-value
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 2);
  {
    ResultStore resumed(path);
    EXPECT_EQ(resumed.size(), 2u);  // torn row skipped, good rows intact
    EXPECT_TRUE(resumed.contains("good/1"));
    EXPECT_FALSE(resumed.contains("torn/3"));
  }

  // Full-precision round trip: a repeating-decimal accuracy (k/300) must
  // come back bit-identical after resume.
  const double awkward = 197.0 / 300.0;
  {
    ResultStore store(path);
    store.put("awkward", awkward);
  }
  ResultStore reloaded(path);
  ASSERT_TRUE(reloaded.lookup("awkward").has_value());
  EXPECT_DOUBLE_EQ(*reloaded.lookup("awkward"), awkward);
}

TEST(ResultStore, PropertyResumesFromEveryTruncationOffset) {
  // Property: for *every* byte offset a mid-write kill could leave the
  // store file at, a fresh ResultStore (a) loads exactly the rows whose
  // terminating newline survived, (b) never loads a torn or merged row,
  // and (c) keeps accepting appends whose reload round-trips — the cleanly
  // flushed case is just the offset == size corner.
  TempDir dir("result_store_property");
  const std::string path = dir.path() + "/store.csv";
  const std::vector<std::pair<std::string, double>> rows = {
      {"a/1", 0.5},           {"b,with,commas/2", 197.0 / 300.0},
      {"c/3", -1.25e-7},      {"d/4", 1.0},
      {"e/long/key/5", 0.75},
  };
  {
    ResultStore store(path);
    for (const auto& [key, value] : rows) store.put(key, value);
  }
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(content.empty());

  for (std::size_t offset = 0; offset <= content.size(); ++offset) {
    // Rows wholly contained in the first `offset` bytes survive. Walking
    // the original content keeps this oracle independent of the parser.
    std::size_t expected = 0;
    for (std::size_t pos = 0; pos < offset;) {
      const std::size_t newline = content.find('\n', pos);
      if (newline == std::string::npos || newline >= offset) break;
      if (content.substr(pos, newline - pos) != "key,accuracy") ++expected;
      pos = newline + 1;
    }

    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << content.substr(0, offset);
    }
    {
      ResultStore resumed(path);
      EXPECT_EQ(resumed.size(), expected) << "offset " << offset;
      std::size_t found = 0;
      for (const auto& [key, value] : rows) {
        const auto loaded = resumed.lookup(key);
        if (!loaded.has_value()) continue;
        ++found;
        EXPECT_DOUBLE_EQ(*loaded, value) << key << " at offset " << offset;
      }
      EXPECT_EQ(found, expected) << "offset " << offset;  // no foreign rows

      // The torn tail was truncated away on load: appending now must not
      // merge into it, and the appended entry must round-trip.
      resumed.put("fresh/after/tear", 0.375);
    }
    ResultStore reloaded(path);
    EXPECT_EQ(reloaded.size(), expected + 1) << "offset " << offset;
    ASSERT_TRUE(reloaded.lookup("fresh/after/tear").has_value());
    EXPECT_DOUBLE_EQ(*reloaded.lookup("fresh/after/tear"), 0.375);
  }
}

TEST(ResultStore, OpenSweepsOrphanedTempFilesWithAWarning) {
  // A crash between nn::save_model's tmp write and its atomic rename
  // leaves `<target>.tmp` behind; nothing else ever reclaims it. Opening a
  // store in that directory (one live writer by contract) must delete
  // exactly the orphans, warn about each, and leave real files alone.
  TempDir dir("result_store_orphans");
  const std::string orphan = dir.path() + "/model.slw.tmp";
  const std::string keeper = dir.path() + "/model.slw";
  const std::string decoy_dir = dir.path() + "/subdir.tmp";
  { std::ofstream(orphan) << "half-written weights"; }
  { std::ofstream(keeper) << "committed weights"; }
  std::filesystem::create_directories(decoy_dir);  // not a regular file

  testing::internal::CaptureStderr();
  { ResultStore store(dir.path() + "/store.csv"); }
  const std::string warning = testing::internal::GetCapturedStderr();

  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(keeper));
  EXPECT_TRUE(std::filesystem::exists(decoy_dir));
  EXPECT_EQ(warning, "[store] removed orphaned temp file " + orphan +
                         " (left by an interrupted writer)\n");

  // A second open has nothing left to sweep.
  testing::internal::CaptureStderr();
  ResultStore reopened(dir.path() + "/store.csv");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// ---------------------------------------------------------------- pipeline

TEST(Pipeline, DeterministicAcrossRunsAndMatchesSerial) {
  TempDir zoo_dir("pipeline_determinism");
  const ExperimentSetup setup = tiny_setup();
  ModelZoo zoo(zoo_dir.path());
  const RunContext context(zoo);
  const VariantSpec original = variant_by_name("Original");
  const auto grid = small_grid();

  // Parallel run, no persistence.
  const auto a_cells = sweep_variant(tiny_spec(), context, original, grid);

  // Second run from scratch: identical accuracies in identical order.
  const auto b_cells = sweep_variant(tiny_spec(), context, original, grid);
  const std::vector<double> a = scenario_accuracies(a_cells);
  const std::vector<double> b = scenario_accuracies(b_cells);
  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  const core::CellSweep declared =
      scenario_sweep(tiny_spec(), setup, original, grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(declared.cells[i + 1].id, grid[i].id());
    EXPECT_DOUBLE_EQ(a[i], b[i]) << grid[i].id();
  }
  EXPECT_DOUBLE_EQ(a_cells[0].values[0], b_cells[0].values[0]);

  // Forced-serial run agrees with the fan-out (same seeds -> same results).
  const std::vector<double> serial = scenario_accuracies(
      sweep_variant(tiny_spec("", 1), context, original, grid));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], a[i]) << grid[i].id();
  }

  // And the serial reference path (AttackEvaluator loop) agrees too.
  auto model = zoo.get_or_train(setup, original);
  AttackEvaluator evaluator(setup, *model, "Original", "");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(evaluator.evaluate_scenario(grid[i]), a[i])
        << grid[i].id();
  }
}

TEST(Pipeline, ResumesFromPersistedStore) {
  TempDir dir("pipeline_resume");
  ModelZoo zoo(dir.path());
  const RunContext context(zoo);
  const ExperimentSpec spec = tiny_spec(dir.path());
  const VariantSpec original = variant_by_name("Original");
  const auto grid = small_grid();

  const auto first = sweep_variant(spec, context, original, grid);
  ASSERT_EQ(first.size(), grid.size() + 1);
  EXPECT_EQ(fresh_scenarios(first), grid.size());  // no cache hits
  EXPECT_TRUE(first[0].fresh);

  // A second sweep (simulating a restarted process) evaluates nothing:
  // every scenario and the baseline come from the store.
  const auto second = sweep_variant(spec, context, original, grid);
  ASSERT_EQ(second.size(), grid.size() + 1);
  EXPECT_EQ(fresh_scenarios(second), 0u);  // all cache hits
  EXPECT_FALSE(second[0].fresh);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(second[i + 1].values[0], first[i + 1].values[0]);
  }

  // Interrupt simulation: delete the last scenario row from the store file
  // (the baseline may land anywhere, it evaluates alongside the scenarios);
  // only that scenario is re-evaluated, and it reproduces the original
  // value.
  const std::string store_file = only_store_file(dir.path(), ".sweep.csv");
  ASSERT_FALSE(store_file.empty());
  std::vector<std::string> lines;
  {
    std::ifstream in(store_file);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  const auto dropped =
      std::find_if(lines.rbegin(), lines.rend(), [](const std::string& line) {
        return line.rfind("baseline/", 0) != 0;
      });
  lines.erase(std::next(dropped).base());
  {
    std::ofstream out(store_file, std::ios::trunc);
    for (const auto& line : lines) out << line << '\n';
  }
  const auto third = sweep_variant(spec, context, original, grid);
  ASSERT_EQ(third.size(), grid.size() + 1);
  EXPECT_EQ(fresh_scenarios(third), 1u);  // grid.size() - 1 cache hits
  EXPECT_FALSE(third[0].fresh);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(third[i + 1].values[0], first[i + 1].values[0]);
  }
}

TEST(Pipeline, DeduplicatesBaselineAndRepeatedScenarios) {
  TempDir dir("pipeline_dedup");
  ModelZoo zoo(dir.path());
  const RunContext context(zoo);
  const ExperimentSpec spec = tiny_spec(dir.path());

  // A grid that repeats the same scenario: evaluated once, reported twice.
  auto grid = small_grid(1);
  const std::size_t unique_count = grid.size();
  grid.insert(grid.end(), grid.begin(), grid.begin() + 2);

  const auto sweep =
      sweep_variant(spec, context, variant_by_name("Original"), grid);
  EXPECT_EQ(fresh_scenarios(sweep), unique_count);
  const std::vector<double> accuracies = scenario_accuracies(sweep);
  ASSERT_EQ(accuracies.size(), unique_count + 2);
  EXPECT_DOUBLE_EQ(accuracies[0], accuracies[unique_count]);

  // The store holds exactly one baseline entry, shared by both sweeps of
  // this variant (the second run reads, never re-evaluates).
  const auto again =
      sweep_variant(spec, context, variant_by_name("Original"), grid);
  EXPECT_FALSE(again[0].fresh);
  EXPECT_DOUBLE_EQ(again[0].values[0], sweep[0].values[0]);
}

TEST(Pipeline, CorruptionConfigSeparatesStores) {
  TempDir dir("pipeline_corruption");
  ModelZoo zoo(dir.path());
  const RunContext context(zoo);
  const auto grid = attack::scenario_grid(
      {attack::AttackVector::kActuation},
      {attack::AttackTarget::kBothBlocks}, {0.10}, 1, 100);

  const ExperimentSpec default_spec = tiny_spec(dir.path());
  sweep_variant(default_spec, context, variant_by_name("Original"), grid);

  // Ablated physics (tiny park distance ~= stuck-at-zero) must not reuse
  // the default-physics cache entries.
  ExperimentSpec ablated_spec = default_spec;
  ablated_spec.corruption.actuation.park_spacing_fraction = 0.02;
  const auto ablated_sweep =
      sweep_variant(ablated_spec, context, variant_by_name("Original"), grid);
  EXPECT_EQ(fresh_scenarios(ablated_sweep), grid.size());  // no cross-config hits

  std::size_t store_count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().string().find(".sweep.csv") != std::string::npos) {
      ++store_count;
    }
  }
  EXPECT_EQ(store_count, 2u);
}

/// CONV scenarios (first dirty layer early, full conv-stack forward: the
/// costly ones) interleaved with FC scenarios (resume past the conv stack:
/// cheap), so any static partition of the grid would be unbalanced.
std::vector<attack::AttackScenario> interleaved_grid() {
  const std::vector<attack::AttackVector> vectors = {
      attack::AttackVector::kActuation, attack::AttackVector::kHotspot};
  const auto conv = attack::scenario_grid(
      vectors, {attack::AttackTarget::kConvBlock}, {0.05, 0.10}, 2, 100);
  const auto fc = attack::scenario_grid(
      vectors, {attack::AttackTarget::kFcBlock}, {0.05, 0.10}, 2, 100);
  std::vector<attack::AttackScenario> grid;
  for (std::size_t i = 0; i < conv.size(); ++i) {
    grid.push_back(conv[i]);
    grid.push_back(fc[i]);
  }
  return grid;
}

TEST(Pipeline, AdversarialOrderIsDeterministicAndBuildsEachBoundaryOnce) {
  TempDir dir("pipeline_adversarial");
  const ExperimentSetup setup = tiny_setup();
  ModelZoo zoo(dir.path());
  const RunContext context(zoo);
  const VariantSpec variant = variant_by_name("Original");
  auto grid = interleaved_grid();
  metrics::arm_collection();
  metrics::Counter& builds = metrics::counter("prefix_cache.boundary_builds");

  // Serial reference: one evaluator, so its cache holds exactly the
  // distinct first-dirty boundaries of the grid.
  auto model = zoo.get_or_train(setup, variant);
  AttackEvaluator reference(setup, *model, variant.name, "");
  std::map<std::string, double> expected;
  for (const auto& scenario : grid) {
    expected[scenario.id()] = reference.evaluate_scenario(scenario);
  }
  const std::size_t boundaries = reference.prefix_boundaries();
  ASSERT_GE(boundaries, 1u) << "grid never engaged the prefix cache";

  for (const bool reversed : {false, true}) {
    if (reversed) std::reverse(grid.begin(), grid.end());
    for (const std::size_t max_workers : {1u, 2u, 4u}) {
      const std::uint64_t before = builds.value();
      const ExperimentSpec spec = tiny_spec("", max_workers);
      const core::CellSweep declared =
          scenario_sweep(spec, setup, variant, grid);
      const std::vector<double> accuracies =
          scenario_accuracies(sweep_cells(spec, context, declared));
      // Each boundary is built once per sweep, however many threads ran.
      EXPECT_EQ(builds.value() - before, boundaries)
          << "max_workers " << max_workers << (reversed ? " reversed" : "");
      ASSERT_EQ(accuracies.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(declared.cells[i + 1].id, grid[i].id());
        EXPECT_EQ(accuracies[i], expected.at(grid[i].id()))
            << grid[i].id() << " max_workers " << max_workers;
      }
    }
  }
  metrics::reset();
}

TEST(Pipeline, EachAttackedDeploymentPlansItsHotspotsOnce) {
  // The detectors read the thermal field the attack solved; nothing plans
  // a hotspot a second time to recover it.
  TempDir dir("pipeline_hotspot_plans");
  ModelZoo zoo(dir.path());
  RunContext context(zoo);
  const auto& registry = ExperimentRegistry::global();
  metrics::arm_collection();
  metrics::Counter& plans = metrics::counter("attack.hotspot_plans");

  // Detection: one plan per hotspot run with fraction > 0.
  ExperimentSpec detection = registry.default_spec("detection");
  detection.model = nn::ModelId::kCnn1;
  detection.scale = Scale::kTiny;
  detection.seed_count = 1;
  detection.cache_dir = "";
  detection.max_workers = 2;
  std::uint64_t before = plans.value();
  const auto report =
      registry.run(detection, context).as<DetectionReport>();
  std::set<std::string> hotspot_runs;
  for (const DetectionRow& row : report.rows) {
    if (!row.clean && row.scenario.vector == attack::AttackVector::kHotspot &&
        row.scenario.fraction > 0.0) {
      hotspot_runs.insert(row.run_id);
    }
  }
  ASSERT_FALSE(hotspot_runs.empty());
  EXPECT_EQ(plans.value() - before, hotspot_runs.size());

  // Campaign: one plan per hotspot component of each distinct composite's
  // accuracy cell and of each active phase's checks.
  attack::CompositeScenario composite;
  composite.components = {
      {attack::AttackVector::kHotspot, attack::AttackTarget::kConvBlock, 0.10,
       21},
      {attack::AttackVector::kActuation, attack::AttackTarget::kBothBlocks,
       0.05, 22},
      {attack::AttackVector::kHotspot, attack::AttackTarget::kFcBlock, 0.10,
       23}};
  ExperimentSpec campaign = registry.default_spec("campaign");
  campaign.model = nn::ModelId::kCnn1;
  campaign.scale = Scale::kTiny;
  campaign.seed_count = 1;
  campaign.cache_dir = "";
  campaign.max_workers = 2;
  campaign.campaigns = {
      attack::ramp_campaign("plans", composite, {0.5, 1.0}, 2),
      attack::burst_campaign("plans-burst", composite, 1, 1, 2)};
  std::size_t expected = 0;
  std::set<std::string> composites;
  for (const attack::CampaignSchedule& schedule : campaign.campaigns) {
    for (const attack::CampaignPhase& phase : schedule.phases) {
      if (!phase.active()) continue;
      const std::size_t hotspots = static_cast<std::size_t>(std::count_if(
          phase.attack.components.begin(), phase.attack.components.end(),
          [](const attack::AttackScenario& component) {
            return component.vector == attack::AttackVector::kHotspot;
          }));
      expected += hotspots;  // the phase cell
      if (composites.insert(phase.attack.id()).second) {
        expected += hotspots;  // the composite's accuracy cell
      }
    }
  }
  before = plans.value();
  registry.run(campaign, context);
  EXPECT_EQ(plans.value() - before, expected);
  metrics::reset();
}

TEST(Pipeline, CancelMidSweepKeepsCompleteRowsAndResumesIdentically) {
  // Every cell sweep polls the cancel flag at its cell boundaries: the
  // scenario sweep, the detection sweep and the campaign sweep alike.
  TempDir dir("pipeline_cancel");
  ModelZoo zoo(dir.path() + "/zoo");
  const auto& registry = ExperimentRegistry::global();
  for (const std::string experiment :
       {"susceptibility", "detection", "campaign"}) {
    SCOPED_TRACE(experiment);
    ExperimentSpec spec = registry.default_spec(experiment);
    spec.model = nn::ModelId::kCnn1;
    spec.scale = Scale::kTiny;
    spec.base_seed = 100;
    spec.seed_count = experiment == "susceptibility" ? 4 : 1;
    spec.max_workers = 4;

    spec.cache_dir = dir.path() + "/" + experiment + "/uninterrupted";
    RunContext plain(zoo);
    const std::string uninterrupted = registry.run(spec, plain).to_json();
    const auto complete = read_store_entries(only_store_file(spec.cache_dir));
    ASSERT_FALSE(complete.empty());

    // Flip the flag once k rows were flushed to the sweep's store, the only
    // on-disk store this run writes.
    constexpr std::uint64_t kStoredBeforeCancel = 4;
    metrics::arm_collection();
    metrics::Counter& flushes = metrics::counter("store.flushes");
    const std::uint64_t flushes_before = flushes.value();
    std::atomic<bool> cancel{false};
    std::atomic<bool> finished{false};
    std::thread canceller([&] {
      while (!finished.load() &&
             flushes.value() < flushes_before + kStoredBeforeCancel) {
        std::this_thread::yield();
      }
      cancel = true;
    });
    spec.cache_dir = dir.path() + "/" + experiment + "/cut";
    RunContext cancellable(zoo);
    cancellable.cancel = &cancel;
    EXPECT_THROW(registry.run(spec, cancellable), ExperimentCancelled);
    finished = true;
    canceller.join();

    // Only complete rows were stored: every line after the header is a
    // `key,value` row holding the value the uninterrupted sweep stored.
    const std::string store_file = only_store_file(spec.cache_dir);
    const std::string bytes = read_file_bytes(store_file);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.back(), '\n');
    std::map<std::string, std::string> reference;
    for (const auto& entry : complete) reference[entry.key] = entry.value;
    std::istringstream rows(bytes);
    std::string row;
    ASSERT_TRUE(std::getline(rows, row));
    EXPECT_EQ(row, "key,accuracy");
    std::set<std::string> rows_seen;
    while (std::getline(rows, row)) {
      const std::size_t comma = row.rfind(',');
      ASSERT_NE(comma, std::string::npos) << row;
      EXPECT_EQ(reference[row.substr(0, comma)], row.substr(comma + 1)) << row;
      EXPECT_TRUE(rows_seen.insert(row.substr(0, comma)).second)
          << "key stored twice: " << row;
    }
    const auto stored = read_store_entries(store_file);
    EXPECT_GE(stored.size(), kStoredBeforeCancel);
    EXPECT_LT(stored.size(), complete.size()) << "cancel never took effect";

    // A rerun resumes from the stored rows — it writes only what is
    // missing — and reproduces the uninterrupted report byte for byte.
    const std::uint64_t flushes_at_resume = flushes.value();
    EXPECT_EQ(registry.run(spec, plain).to_json(), uninterrupted);
    const std::uint64_t written = flushes.value() - flushes_at_resume;
    EXPECT_EQ(written, complete.size() - stored.size());
    metrics::reset();
  }
}

// -------------------------------------------------------------- cell sweep

/// Cell sweeps of the tiny cnn1 Original variant, trained once per suite.
class CellSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("cell_sweep");
    zoo_ = new ModelZoo(dir_->path() + "/zoo");
  }
  static void TearDownTestSuite() {
    delete zoo_;
    delete dir_;
  }

  /// Sweeps `cells`, recording which cells were evaluated; evaluate stores
  /// 100 * cell index + key index, so results are checkable without
  /// touching the deployment.
  std::vector<SweptCell> sweep(const std::vector<SweepCell>& cells,
                               const ExperimentSpec& spec) {
    const RunContext context(*zoo_);
    return sweep_cells(
        spec, context,
        {variant_by_name("Original"), ".cells.csv", cells, false,
         [&](Deployment&, std::size_t i, ResultStore& store) {
           {
             const std::lock_guard<std::mutex> lock(mutex_);
             evaluated_.push_back(cells[i].id);
           }
           for (std::size_t k = 0; k < cells[i].keys.size(); ++k) {
             store.put(cells[i].keys[k], static_cast<double>(100 * i + k));
           }
         }});
  }

  static TempDir* dir_;
  static ModelZoo* zoo_;
  std::mutex mutex_;
  std::vector<std::string> evaluated_;
};

TempDir* CellSweep::dir_ = nullptr;
ModelZoo* CellSweep::zoo_ = nullptr;

TEST_F(CellSweep, RerunsACellMissingOneOfItsKeys) {
  const ExperimentSpec spec = tiny_spec(dir_->path() + "/partial");
  const std::vector<SweepCell> cells = {{"a", {"a/0", "a/1", "a/2"}},
                                        {"b", {"b/0", "b/1"}}};
  const auto first = sweep(cells, spec);
  EXPECT_TRUE(first[0].fresh);
  EXPECT_TRUE(first[1].fresh);

  // Drop one of a's three rows, as an interrupt between flushes would.
  const std::string store_file = only_store_file(spec.cache_dir);
  std::vector<std::string> lines;
  {
    std::ifstream in(store_file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("a/1,", 0) != 0) lines.push_back(line);
    }
  }
  {
    std::ofstream out(store_file, std::ios::trunc);
    for (const auto& line : lines) out << line << '\n';
  }
  const auto stored = [&](const std::string& key) {
    for (const auto& line : lines) {
      if (line.rfind(key + ",", 0) == 0) return true;
    }
    return false;
  };
  EXPECT_EQ(pending_cells(cells, stored), std::vector<std::size_t>{0});

  evaluated_.clear();
  const auto second = sweep(cells, spec);
  EXPECT_EQ(evaluated_, std::vector<std::string>{"a"});
  EXPECT_TRUE(second[0].fresh);
  EXPECT_FALSE(second[1].fresh);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(second[i].values, first[i].values) << cells[i].id;
  }
}

TEST_F(CellSweep, EvaluatesARepeatedIdOnce) {
  const std::vector<SweepCell> cells = {
      {"x", {"x/0"}}, {"y", {"y/0"}}, {"x", {"x/0"}}};
  const auto swept = sweep(cells, tiny_spec());
  EXPECT_EQ(evaluated_, (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(swept[0].fresh);
  EXPECT_TRUE(swept[1].fresh);
  EXPECT_FALSE(swept[2].fresh);  // read back what cell 0 stored
  EXPECT_EQ(swept[2].values, swept[0].values);
}

TEST_F(CellSweep, RejectsOneKeyListedUnderTwoIds) {
  const std::vector<SweepCell> cells = {{"a", {"k"}}, {"b", {"k"}}};
  EXPECT_THROW(pending_cells(cells, [](const std::string&) { return false; }),
               std::logic_error);
  EXPECT_THROW(sweep(cells, tiny_spec()), std::logic_error);
  EXPECT_TRUE(evaluated_.empty());
}

TEST_F(CellSweep, ResultsFollowDeclarationOrderForOneAndFourWorkers) {
  std::vector<SweepCell> cells;
  for (std::size_t i = 0; i < 24; ++i) {
    std::string id = "c";
    id += std::to_string(i);
    cells.push_back({id, {id + "/0", id + "/1"}});
  }
  for (const std::size_t workers : {1u, 4u}) {
    evaluated_.clear();
    const auto swept = sweep(cells, tiny_spec("", workers));
    ASSERT_EQ(swept.size(), cells.size());
    EXPECT_EQ(evaluated_.size(), cells.size()) << workers << " workers";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(swept[i].fresh);
      EXPECT_EQ(swept[i].values,
                (std::vector<double>{100.0 * i, 100.0 * i + 1}))
          << cells[i].id << ", " << workers << " workers";
    }
  }
}

// Every registry experiment's declared sweeps give each store key exactly
// one owning cell id, so no two cells can race to append the same key.
TEST(CellSweepDeclarations, EveryRegistrySweepListsEachKeyUnderOneId) {
  const auto& registry = ExperimentRegistry::global();
  const std::vector<std::string> experiments = registry.names();
  ASSERT_EQ(experiments.size(), 5u);
  for (const std::string& experiment : experiments) {
    SCOPED_TRACE(experiment);
    ExperimentSpec spec = registry.default_spec(experiment);
    spec.model = nn::ModelId::kCnn1;
    spec.scale = Scale::kTiny;
    spec.robust_variant = "L2_reg";  // pinned: no selection round
    const std::vector<core::CellSweep> sweeps =
        registry.info(experiment).sweeps(spec);
    ASSERT_FALSE(sweeps.empty());
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const std::vector<SweepCell>& cells = sweeps[s].cells;
      std::map<std::string, std::string> owner;  // key -> first cell id
      for (const SweepCell& cell : cells) {
        for (const std::string& key : cell.keys) {
          const auto [it, first] = owner.emplace(key, cell.id);
          EXPECT_TRUE(first || it->second == cell.id)
              << "sweep " << s << ": key '" << key << "' under cells '"
              << it->second << "' and '" << cell.id << "'";
        }
      }
      EXPECT_NO_THROW(
          pending_cells(cells, [](const std::string&) { return false; }))
          << "sweep " << s;
    }
  }
}

}  // namespace
}  // namespace safelight::core
