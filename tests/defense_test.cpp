// Tests for the runtime attack-detection subsystem: detector unit behavior
// (canary signatures, range envelopes, thermal sentinels), the observing
// read-out hook's prefix-cache interaction, and the detection-evaluation
// sweep (zero false positives, AUC, latency, caching and resume).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "defense/suite.hpp"
#include "nn/serialize.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

using core::DetectionReport;
using core::ExperimentSetup;
using core::ModelZoo;

ExperimentSetup tiny_setup() {
  return core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
}

attack::AttackScenario scenario_of(attack::AttackVector vector,
                                   double fraction, std::uint64_t seed) {
  attack::AttackScenario scenario;
  scenario.vector = vector;
  scenario.target = attack::AttackTarget::kBothBlocks;
  scenario.fraction = fraction;
  scenario.seed = seed;
  return scenario;
}

/// One conditioned tiny deployment shared by the detector unit tests:
/// model + executor + mapping + clean snapshot, with helpers to attack and
/// restore it.
class Deployment {
 public:
  explicit Deployment(const std::string& zoo_dir)
      : setup_(tiny_setup()),
        zoo_(zoo_dir),
        model_(zoo_.get_or_train(setup_, core::variant_by_name("Original"))),
        executor_(setup_.accelerator),
        mapping_((executor_.condition_weights(*model_), *model_),
                 setup_.accelerator),
        clean_snapshot_(nn::snapshot_state(*model_)) {}

  defense::DeploymentView view(
      const std::vector<attack::BlockThermalState>* thermal = nullptr,
      std::uint64_t probe_seed = 0) {
    return defense::DeploymentView{*model_, executor_, thermal, probe_seed};
  }

  attack::CorruptionStats attack(const attack::AttackScenario& scenario) {
    return attack::apply_attack(mapping_, scenario, {});
  }

  void restore() { nn::restore_state(*model_, clean_snapshot_); }

  const ExperimentSetup& setup() const { return setup_; }

 private:
  ExperimentSetup setup_;
  ModelZoo zoo_;
  std::unique_ptr<nn::Sequential> model_;
  accel::OnnExecutor executor_;
  accel::WeightStationaryMapping mapping_;
  std::vector<nn::Tensor> clean_snapshot_;
};

// ------------------------------------------------------------- detectors

TEST(Detectors, CleanCheckNeverFlags) {
  TempDir dir("defense_clean");
  Deployment deployment(dir.path());
  defense::DetectorSuite suite(deployment.setup());
  suite.calibrate(deployment.view(nullptr, 1));

  for (std::uint64_t probe_seed : {2u, 3u, 4u}) {
    const auto results = suite.check_all(deployment.view(nullptr, probe_seed));
    ASSERT_EQ(results.size(), 3u);
    for (const auto& r : results) {
      EXPECT_FALSE(r.flagged) << r.detector << " seed " << probe_seed;
      EXPECT_EQ(r.first_flag_probe, 0u) << r.detector;
    }
  }
}

TEST(Detectors, CanaryAndRangeFlagActuation) {
  TempDir dir("defense_actuation");
  Deployment deployment(dir.path());
  defense::DetectorSuite suite(deployment.setup());
  suite.calibrate(deployment.view(nullptr, 1));

  deployment.attack(
      scenario_of(attack::AttackVector::kActuation, 0.10, 2000));
  const auto results = suite.check_all(deployment.view(nullptr, 9));

  const auto& canary = results[0];
  EXPECT_EQ(canary.detector, "canary");
  EXPECT_TRUE(canary.flagged);
  EXPECT_GT(canary.score, 0.0);
  EXPECT_GE(canary.first_flag_probe, 1u);

  const auto& range = results[1];
  EXPECT_EQ(range.detector, "range_monitor");
  EXPECT_TRUE(range.flagged);
  EXPECT_GT(range.score, 0.0);

  // Actuation is electro-optic: the thermal sentinel stays quiet.
  const auto& sentinel = results[2];
  EXPECT_EQ(sentinel.detector, "thermal_sentinel");
  EXPECT_FALSE(sentinel.flagged);
}

TEST(Detectors, SentinelFlagsHotspotTelemetry) {
  TempDir dir("defense_hotspot");
  Deployment deployment(dir.path());
  defense::DetectorSuite suite(deployment.setup());
  suite.calibrate(deployment.view(nullptr, 1));

  const auto scenario =
      scenario_of(attack::AttackVector::kHotspot, 0.10, 2001);
  const auto telemetry = deployment.attack(scenario).thermal;
  ASSERT_FALSE(telemetry.empty());

  const auto results = suite.check_all(deployment.view(&telemetry, 9));
  const auto& sentinel = results[2];
  EXPECT_TRUE(sentinel.flagged);
  EXPECT_GT(sentinel.score, suite.detector("thermal_sentinel").threshold());
  EXPECT_EQ(sentinel.first_flag_probe, 1u);
  EXPECT_TRUE(results[0].flagged);  // signatures diverge too
}

TEST(Detectors, ChecksDeterministicInProbeSeed) {
  TempDir dir("defense_determinism");
  Deployment deployment(dir.path());
  defense::DetectorSuite suite(deployment.setup());
  suite.calibrate(deployment.view(nullptr, 1));

  const auto a = suite.check_all(deployment.view(nullptr, 42));
  const auto b = suite.check_all(deployment.view(nullptr, 42));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << a[i].detector;
  }
  // Different probe seeds read different sensor noise.
  const auto c = suite.check_all(deployment.view(nullptr, 43));
  EXPECT_NE(a[2].score, c[2].score);
}

/// Byte equality of two thermal fields: block, bank rises and solved grid.
void expect_same_field(const std::vector<attack::BlockThermalState>& a,
                       const std::vector<attack::BlockThermalState>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto same_bytes = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].banks_per_unit, b[i].banks_per_unit);
    EXPECT_TRUE(same_bytes(a[i].bank_delta_t, b[i].bank_delta_t));
    EXPECT_TRUE(same_bytes(a[i].grid.temperatures(), b[i].grid.temperatures()));
    EXPECT_TRUE(same_bytes(a[i].grid.powers(), b[i].grid.powers()));
  }
}

TEST(Detectors, TelemetryEmptyForCleanAndActuation) {
  const auto setup = tiny_setup();
  auto model = nn::make_model(setup.model, setup.model_config);
  accel::WeightStationaryMapping mapping(*model, setup.accelerator);
  // A partial trigger draws from the scenario's RNG too, so the field the
  // attack returns equals the re-planned one only if both draw alike.
  attack::CorruptionConfig corruption;
  corruption.hotspot.trigger.trigger_probability = 0.6;

  attack::AttackScenario none;
  none.fraction = 0.0;
  const auto actuation =
      scenario_of(attack::AttackVector::kActuation, 0.10, 1);
  for (const attack::AttackScenario& quiet : {none, actuation}) {
    SCOPED_TRACE(quiet.id());
    EXPECT_TRUE(defense::scenario_telemetry(setup.accelerator, quiet,
                                            corruption)
                    .empty());
    EXPECT_TRUE(attack::apply_attack(mapping, quiet, corruption)
                    .thermal.empty());
  }

  for (const attack::AttackTarget target :
       {attack::AttackTarget::kConvBlock, attack::AttackTarget::kFcBlock,
        attack::AttackTarget::kBothBlocks}) {
    auto hotspot = scenario_of(attack::AttackVector::kHotspot, 0.10, 2002);
    hotspot.target = target;
    SCOPED_TRACE(hotspot.id());
    const auto planned =
        defense::scenario_telemetry(setup.accelerator, hotspot, corruption);
    ASSERT_EQ(planned.size(),
              target == attack::AttackTarget::kBothBlocks ? 2u : 1u);
    expect_same_field(
        attack::apply_attack(mapping, hotspot, corruption).thermal, planned);
  }
}

// ------------------------------------------- observing hooks vs the cache

TEST(ObservingHooks, KeepPrefixCacheAndResults) {
  TempDir dir("defense_observer_cache");
  const ExperimentSetup setup = tiny_setup();
  ModelZoo zoo(dir.path());

  // FC-only corruption: the conv prefix is clean, so the cache is eligible.
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kActuation;
  scenario.target = attack::AttackTarget::kFcBlock;
  scenario.fraction = 0.10;
  scenario.seed = 77;

  auto baseline_model =
      zoo.get_or_train(setup, core::variant_by_name("Original"));
  core::AttackEvaluator baseline(setup, *baseline_model, "Original", "");
  const double expected = baseline.evaluate_scenario(scenario);
  ASSERT_GT(baseline.prefix_hits(), 0u);

  // An observing hook must not force the slow path — and must not change
  // the measured accuracy.
  auto observed_model =
      zoo.get_or_train(setup, core::variant_by_name("Original"));
  core::AttackEvaluator observed(setup, *observed_model, "Original", "");
  std::size_t hook_calls = 0;
  observed.executor().set_readout_hook(
      [&hook_calls](nn::Tensor&, accel::BlockKind, float) { ++hook_calls; },
      accel::ReadoutHookKind::kObserving);
  EXPECT_TRUE(observed.executor().has_readout_hook());
  EXPECT_FALSE(observed.executor().has_mutating_readout_hook());
  EXPECT_DOUBLE_EQ(observed.evaluate_scenario(scenario), expected);
  EXPECT_GT(observed.prefix_hits(), 0u);
  EXPECT_GT(hook_calls, 0u);

  // A mutating hook (even a no-op one) must disable the cache: the
  // evaluator cannot know it leaves tensors untouched.
  auto mutating_model =
      zoo.get_or_train(setup, core::variant_by_name("Original"));
  core::AttackEvaluator mutating(setup, *mutating_model, "Original", "");
  mutating.executor().set_readout_hook(
      [](nn::Tensor&, accel::BlockKind, float) {});
  EXPECT_TRUE(mutating.executor().has_mutating_readout_hook());
  EXPECT_DOUBLE_EQ(mutating.evaluate_scenario(scenario), expected);
  EXPECT_EQ(mutating.prefix_hits(), 0u);
}

// ------------------------------------------------------- detection sweep

std::vector<attack::AttackScenario> sweep_grid() {
  return attack::scenario_grid(
      {attack::AttackVector::kActuation, attack::AttackVector::kHotspot},
      {attack::AttackTarget::kBothBlocks}, {0.05, 0.10}, 2, 500);
}

/// A tiny-scale CNN_1 detection spec (Original variant) over `grid`.
core::ExperimentSpec detection_spec(std::vector<attack::AttackScenario> grid,
                                    std::size_t clean_runs) {
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("detection");
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.clean_runs = clean_runs;
  spec.grid = std::move(grid);
  return spec;
}

DetectionReport run_detection(const core::ExperimentSpec& spec,
                              ModelZoo& zoo) {
  core::RunContext context(zoo);
  return core::ExperimentRegistry::global()
      .run(spec, context)
      .as<DetectionReport>();
}

TEST(DetectionSweep, ZeroFalsePositivesAndAucAboveChance) {
  TempDir dir("detection_sweep");
  ModelZoo zoo(dir.path());

  const core::ExperimentSpec spec = detection_spec(sweep_grid(), 4);
  const DetectionReport report = run_detection(spec, zoo);

  const std::size_t runs = spec.clean_runs + sweep_grid().size();
  ASSERT_EQ(report.rows.size(), runs * 3u);
  ASSERT_EQ(report.detectors.size(), 3u);

  for (const std::string& detector : report.detectors) {
    // Zero false positives at the default thresholds.
    EXPECT_DOUBLE_EQ(report.false_positive_rate(detector), 0.0) << detector;
    // Pooled over both attack vectors at >= 5 % intensity, every detector
    // separates attack from clean better than chance.
    EXPECT_GT(report.auc(detector, std::nullopt, 0.05), 0.5) << detector;
  }

  // The recompute- and read-out-based detectors work per vector too.
  for (const std::string& detector : {std::string("canary"),
                                      std::string("range_monitor")}) {
    EXPECT_GT(report.auc(detector, attack::AttackVector::kActuation, 0.05),
              0.5)
        << detector;
    EXPECT_GT(report.auc(detector, attack::AttackVector::kHotspot, 0.05),
              0.5)
        << detector;
  }
  // The sentinel is the thermal specialist.
  EXPECT_GT(report.auc("thermal_sentinel", attack::AttackVector::kHotspot,
                       0.05),
            0.5);
  EXPECT_DOUBLE_EQ(
      report.true_positive_rate("canary", std::nullopt, 0.05), 1.0);

  // Latency: every flagged run records a positive probes-to-flag count.
  const BoxStats latency = report.detection_latency("canary");
  EXPECT_GE(latency.min, 1.0);

  // ROC curves are monotone from (0,0)-ish to exactly (1,1).
  for (const std::string& detector : report.detectors) {
    const core::RocCurve curve = report.roc(detector, std::nullopt, 0.05);
    ASSERT_GE(curve.points.size(), 2u);
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
      EXPECT_GE(curve.points[i].tpr, curve.points[i - 1].tpr);
      EXPECT_GE(curve.points[i].fpr, curve.points[i - 1].fpr);
      EXPECT_GT(curve.points[i - 1].threshold, curve.points[i].threshold);
    }
    EXPECT_DOUBLE_EQ(curve.points.back().tpr, 1.0);
    EXPECT_DOUBLE_EQ(curve.points.back().fpr, 1.0);
    EXPECT_GE(curve.auc, 0.0);
    EXPECT_LE(curve.auc, 1.0);
  }
}

TEST(DetectionSweep, CachesAndResumesDeterministically) {
  TempDir dir("detection_resume");
  ModelZoo zoo(dir.path());

  const auto grid = attack::scenario_grid(
      {attack::AttackVector::kActuation}, {attack::AttackTarget::kBothBlocks},
      {0.10}, 2, 600);
  core::ExperimentSpec spec = detection_spec(grid, 2);
  spec.cache_dir = dir.path();

  const DetectionReport first = run_detection(spec, zoo);
  EXPECT_EQ(first.evaluated, spec.clean_runs + grid.size());
  EXPECT_EQ(first.cache_hits, 0u);

  // A fresh sweep (new process in real life) re-evaluates nothing and
  // reproduces every score exactly.
  const DetectionReport second = run_detection(spec, zoo);
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.cache_hits, spec.clean_runs + grid.size());
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.rows[i].score, first.rows[i].score)
        << first.rows[i].run_id << "/" << first.rows[i].detector;
    EXPECT_EQ(second.rows[i].first_flag_probe, first.rows[i].first_flag_probe);
    EXPECT_TRUE(second.rows[i].from_cache);
  }

  // Interrupt simulation: drop the last rows of the store so one run is
  // only partially persisted. That run must re-check (a partial run must
  // never be served as cached), and it reproduces the original scores.
  std::string store_file;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().string().find(".detect.csv") != std::string::npos) {
      store_file = entry.path().string();
    }
  }
  ASSERT_FALSE(store_file.empty());
  std::vector<std::string> lines;
  {
    std::ifstream in(store_file);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  lines.resize(lines.size() - 2);  // torn mid-run: last detector's rows gone
  {
    std::ofstream out(store_file, std::ios::trunc);
    for (const auto& line : lines) out << line << '\n';
  }
  const DetectionReport third = run_detection(spec, zoo);
  EXPECT_EQ(third.evaluated, 1u);
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(third.rows[i].score, first.rows[i].score)
        << first.rows[i].run_id << "/" << first.rows[i].detector;
  }
}

TEST(DetectionSweep, RankAucHandlesOrderAndTies) {
  EXPECT_DOUBLE_EQ(core::rank_auc({0.0, 0.0}, {1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(core::rank_auc({1.0}, {1.0}), 0.5);
  EXPECT_DOUBLE_EQ(core::rank_auc({2.0}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::rank_auc({0.0, 1.0}, {0.5}), 0.5);
  EXPECT_THROW(core::rank_auc({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(core::rank_auc({1.0}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace safelight
