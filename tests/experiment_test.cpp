// Unified experiment API (core/experiment.hpp): registry contents, spec
// validation, spec -> run -> ExperimentResult -> CSV/JSON round trips for
// every registered experiment at tiny scale, and the run-all contract (one
// shared zoo, no retrain between experiments).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <system_error>

#include "attacks/campaign.hpp"
#include "cli/cli.hpp"
#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

core::ExperimentSetup tiny_setup() {
  return core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
}

/// A spec sized for test speed: cnn1 at tiny scale, minimal grid.
core::ExperimentSpec tiny_spec(const std::string& experiment,
                               const std::string& cache_dir) {
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec(experiment);
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.seed_count = 1;
  spec.cache_dir = cache_dir;
  spec.clean_runs = 2;
  if (experiment == "robust_compare") {
    // Pin the robust variant so the test does not run the full 11-variant
    // mitigation selection sweep.
    spec.robust_variant = "l2+n3";
  }
  if (experiment == "campaign") {
    attack::CompositeScenario hotspot;
    hotspot.components.push_back(
        {attack::AttackVector::kHotspot, attack::AttackTarget::kBothBlocks,
         0.10, 42});
    spec.campaigns = {attack::burst_campaign("ambush", hotspot,
                                             /*lead_dormant=*/1,
                                             /*trail_dormant=*/0)};
  }
  return spec;
}

TEST(ExperimentRegistry, ListsTheFiveBuiltinsInFigureOrder) {
  const auto names = core::ExperimentRegistry::global().names();
  EXPECT_EQ(names, (std::vector<std::string>{"susceptibility", "mitigation",
                                             "robust_compare", "detection",
                                             "campaign"}));
  for (const std::string& name : names) {
    const core::ExperimentInfo& info =
        core::ExperimentRegistry::global().info(name);
    EXPECT_FALSE(info.summary.empty());
    EXPECT_GE(info.default_seed_count, 1u);
    EXPECT_FALSE(info.csv_files.empty());
    EXPECT_TRUE(static_cast<bool>(info.sweeps));
    EXPECT_TRUE(static_cast<bool>(info.assemble));
    // Only robust_compare completes its spec (the selection run).
    EXPECT_EQ(static_cast<bool>(info.resolve), name == "robust_compare");
  }
}

TEST(ExperimentRegistry, UnknownExperimentNameIsActionable) {
  try {
    core::ExperimentRegistry::global().info("susceptibilty");  // typo
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("susceptibilty"), std::string::npos);
    // The message lists what *is* registered.
    EXPECT_NE(what.find("susceptibility"), std::string::npos);
    EXPECT_NE(what.find("campaign"), std::string::npos);
  }
}

TEST(ExperimentRegistry, DuplicateAndInvalidRegistrationsThrow) {
  core::ExperimentRegistry registry;
  core::ExperimentInfo info;
  info.name = "custom";
  info.sweeps = core::susceptibility_sweeps;
  info.assemble = core::assemble_susceptibility;
  registry.add(info);
  EXPECT_THROW(registry.add(info), std::invalid_argument);  // duplicate
  core::ExperimentInfo nameless = info;
  nameless.name.clear();
  EXPECT_THROW(registry.add(nameless), std::invalid_argument);
  core::ExperimentInfo sweepless = info;
  sweepless.name = "sweepless";
  sweepless.sweeps = nullptr;
  EXPECT_THROW(registry.add(sweepless), std::invalid_argument);
  core::ExperimentInfo assembleless = info;
  assembleless.name = "assembleless";
  assembleless.assemble = nullptr;
  EXPECT_THROW(registry.add(assembleless), std::invalid_argument);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"custom"});
}

TEST(ExperimentSpec, ValidationRejectsBadFieldsWithActionableMessages) {
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("susceptibility");

  spec.seed_count = 0;
  try {
    spec.validate();
    FAIL() << "seed_count == 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seed_count"), std::string::npos);
  }
  spec.seed_count = 1;
  EXPECT_NO_THROW(spec.validate());

  spec.variant = "l2+n42";
  try {
    spec.validate();
    FAIL() << "unknown variant must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("l2+n42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Original"), std::string::npos);
  }
  spec.variant = "Original";

  spec.robust_variant = "nope";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.robust_variant.clear();

  spec.clean_runs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ExperimentSpec, VariantOverridePassesThroughVerbatim) {
  // The deployed variant is exactly variant_by_name(variant, l2_strength):
  // the name picks the noise sigma and a non-default l2_strength overrides
  // the weight decay of every L2-regularized variant.
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("detection");
  spec.variant = "l2+n3";
  EXPECT_EQ(spec.resolved_variant().name, "l2+n3");
  EXPECT_FLOAT_EQ(spec.resolved_variant().noise_sigma, 0.3f);
  EXPECT_FLOAT_EQ(spec.resolved_variant().weight_decay,
                  core::kDefaultL2Strength);
  spec.l2_strength = 1e-3f;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_FLOAT_EQ(spec.resolved_variant().weight_decay, 1e-3f);
  EXPECT_FLOAT_EQ(spec.resolved_variant().noise_sigma, 0.3f);
}

TEST(ExperimentSpec, RunRejectsUnknownModelNameAtTheParseBoundary) {
  // Specs hold a typed ModelId; name-based entry (CLI --model) goes through
  // model_id_from_string, which must reject typos with the valid names.
  try {
    nn::model_id_from_string("resnet19");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resnet19"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("resnet18"), std::string::npos);
  }
}

/// Every regular file under `dir`, path -> bytes.
std::map<std::string, std::string> snapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = read_file_bytes(entry.path().string());
    }
  }
  return files;
}

TEST(ExperimentSweep, EveryRegisteredExperimentRoundTripsAtTinyScale) {
  TempDir dir("experiment_roundtrip");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  std::vector<std::string> notes;
  context.progress = [&](const std::string& stage) { notes.push_back(stage); };

  const auto& registry = core::ExperimentRegistry::global();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    const core::ExperimentSpec spec = tiny_spec(name, dir.path());
    // Fill the declared sweeps first: the registry run must then evaluate
    // nothing, so no file in the cache dir changes by a byte.
    for (const core::CellSweep& sweep : registry.info(name).sweeps(spec)) {
      core::sweep_cells(spec, context, sweep);
    }
    const std::map<std::string, std::string> filled = snapshot(dir.path());
    const core::ExperimentResult result = registry.run(spec, context);
    EXPECT_EQ(snapshot(dir.path()), filled)
        << "the run evaluated cells outside its declared sweeps";

    EXPECT_EQ(result.experiment, name);
    EXPECT_GT(result.wall_seconds, 0.0);

    // CSV round trip: documents carry the registered file stems, a header
    // and at least one row each.
    const std::vector<core::CsvDocument> docs = result.to_csv();
    ASSERT_EQ(docs.size(), registry.info(name).csv_files.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(docs[i].file_stem, registry.info(name).csv_files[i]);
      EXPECT_FALSE(docs[i].header.empty());
      ASSERT_FALSE(docs[i].rows.empty());
      for (const auto& row : docs[i].rows) {
        EXPECT_EQ(row.size(), docs[i].header.size());
      }
    }

    // JSON: deterministic (two calls identical) and carries the header
    // fields plus a report body.
    const std::string json = result.to_json();
    EXPECT_EQ(json, result.to_json());
    EXPECT_NE(json.find("\"experiment\": \"" + name + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"model\": \"cnn1\""), std::string::npos);
    EXPECT_NE(json.find("\"scale\": \"tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"report\": {"), std::string::npos);
  }
  EXPECT_FALSE(notes.empty());  // progress hook fired
}

TEST(ExperimentSweep, RunAllSharesOneZooWithoutRetraining) {
  TempDir dir("experiment_shared_zoo");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  const auto& registry = core::ExperimentRegistry::global();

  // First experiment trains the Original cnn1 variant...
  registry.run(tiny_spec("susceptibility", dir.path()), context);
  const std::string entry =
      zoo.entry_path(tiny_setup(), core::variant_by_name("Original"));
  ASSERT_TRUE(std::filesystem::exists(entry));
  const auto trained_at = std::filesystem::last_write_time(entry);

  // ... and the remaining experiments reuse it: the cache file is never
  // rewritten (a retrain would rewrite it).
  for (const std::string name : {"detection", "campaign"}) {
    registry.run(tiny_spec(name, dir.path()), context);
    EXPECT_EQ(std::filesystem::last_write_time(entry), trained_at)
        << name << " retrained the shared variant";
  }
}

// ---------------------------------------------------------------------------
// CLI error paths: every nonzero exit code, with its exact documented
// message where the text is load-bearing for scripts that parse it. Each
// test calls cli::run in-process; the guard restores the global config
// overrides cli::run installs.
// ---------------------------------------------------------------------------

/// Runs the CLI in-process with stdout/stderr captured.
struct CapturedCli {
  int exit_code;
  std::string stdout_text;
  std::string stderr_text;
};

CapturedCli run_cli_captured(const std::vector<std::string>& args) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli::run(args);
  return {rc, testing::internal::GetCapturedStdout(),
          testing::internal::GetCapturedStderr()};
}

TEST(CliErrorPaths, UnknownExperimentExitsTwoAndListsWhatIsRegistered) {
  config::ScopedOverrides guard(config::overrides());
  const CapturedCli result = run_cli_captured({"run", "susceptibilty"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(result.stderr_text,
            "safelight: ExperimentRegistry: unknown experiment "
            "'susceptibilty' (registered: susceptibility, mitigation, "
            "robust_compare, detection, campaign)\n");
}

TEST(CliErrorPaths, UsageErrorsExitTwoWithTheDocumentedMessages) {
  config::ScopedOverrides guard(config::overrides());

  const CapturedCli missing_name = run_cli_captured({"run"});
  EXPECT_EQ(missing_name.exit_code, 2);
  EXPECT_EQ(missing_name.stderr_text,
            "safelight: 'safelight run' needs an experiment name (try "
            "'safelight list')\n");

  const CapturedCli bad_flag =
      run_cli_captured({"run", "susceptibility", "--frobnicate"});
  EXPECT_EQ(bad_flag.exit_code, 2);
  EXPECT_EQ(bad_flag.stderr_text,
            "safelight: unknown flag '--frobnicate' (see 'safelight "
            "help')\n");

  const CapturedCli bad_mode =
      run_cli_captured({"run", "susceptibility", "--fault-mode", "sometimes"});
  EXPECT_EQ(bad_mode.exit_code, 2);
  EXPECT_EQ(bad_mode.stderr_text,
            "safelight: unknown fault mode 'sometimes' (valid modes: none, "
            "independent, run_length, uniform)\n");

  // Chaos arms inside dist workers only; without them it would be ignored.
  const CapturedCli chaos_alone =
      run_cli_captured({"run", "susceptibility", "--chaos", "0.2"});
  EXPECT_EQ(chaos_alone.exit_code, 2);
  EXPECT_EQ(chaos_alone.stderr_text,
            "safelight: flag --chaos needs --workers N (N >= 1): it arms "
            "fault injection inside the dist workers only\n");

  // Workers write no store of their own: --store-dir is no flag at all.
  const CapturedCli store_dir =
      run_cli_captured({"run", "susceptibility", "--store-dir", "stores"});
  EXPECT_EQ(store_dir.exit_code, 2);
  EXPECT_EQ(store_dir.stderr_text,
            "safelight: unknown flag '--store-dir' (see 'safelight "
            "help')\n");
}

TEST(CliErrorPaths, UnwritableOutDirectoryExitsOneBeforeAnyWork) {
  config::ScopedOverrides guard(config::overrides());
  TempDir dir("cli_unwritable_out");
  // Root ignores permission bits, so an unwritable path is made by routing
  // the directory through a regular file (ENOTDIR) instead of chmod 000.
  const std::string blocker = dir.path() + "/blocker.txt";
  { std::ofstream(blocker) << "not a directory\n"; }
  const std::string bad_out = blocker + "/out";

  const CapturedCli result = run_cli_captured(
      {"run", "susceptibility", "--model", "cnn1", "--scale", "tiny",
       "--out", bad_out, "--zoo", dir.path() + "/zoo"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stderr_text,
            "safelight: cannot create output directory '" + bad_out + "': " +
                std::make_error_code(std::errc::not_a_directory).message() +
                " (pass a writable --out directory)\n");
  // It failed before training anything into the zoo.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/zoo"));
}

TEST(CliErrorPaths, BogusBaseSeedKnobExitsTwoBeforeTraining) {
  config::ScopedOverrides guard(config::overrides());
  TempDir dir("cli_base_seed_knob");
  ::setenv("SAFELIGHT_BASE_SEED", "on", 1);
  const CapturedCli result = run_cli_captured(
      {"run", "susceptibility", "--model", "cnn1", "--scale", "tiny",
       "--out", dir.path() + "/out", "--zoo", dir.path() + "/zoo"});
  ::unsetenv("SAFELIGHT_BASE_SEED");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(result.stderr_text,
            "safelight: SAFELIGHT_BASE_SEED must be a decimal integer "
            "(got 'on')\n");
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/zoo"));
}

TEST(CliErrorPaths, CancellationExitsOneThirtyWithTheResumeHint) {
  config::ScopedOverrides guard(config::overrides());
  TempDir dir("cli_cancel");
  // The deterministic stand-in for ^C mid-sweep: the flag is already set
  // when the sweep reaches its first cooperative checkpoint.
  cli::request_cancel();
  const CapturedCli result = run_cli_captured(
      {"run", "susceptibility", "--model", "cnn1", "--scale", "tiny",
       "--seeds", "1", "--out", dir.path() + "/out", "--zoo",
       dir.path() + "/zoo"});
  EXPECT_EQ(result.exit_code, 130);
  EXPECT_EQ(result.stderr_text,
            "safelight: experiment 'susceptibility' cancelled (completed "
            "scenarios stay cached; rerun the same command to resume)\n");
}

TEST(ExperimentSweep, CancellationAbortsBeforeWork) {
  TempDir dir("experiment_cancel");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  std::atomic<bool> cancel{true};
  context.cancel = &cancel;
  EXPECT_THROW(core::ExperimentRegistry::global().run(
                   tiny_spec("susceptibility", dir.path()), context),
               core::ExperimentCancelled);
  // Nothing was trained or cached.
  EXPECT_FALSE(std::filesystem::exists(
      zoo.entry_path(tiny_setup(), core::variant_by_name("Original"))));
}

}  // namespace
}  // namespace safelight
