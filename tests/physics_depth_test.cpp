// Deeper cross-cutting checks: crosstalk scaling, linearity, executor
// quantization sweeps, energy model block concurrency, and assorted edge
// cases.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/energy.hpp"
#include "accel/executor.hpp"
#include "attacks/corruption.hpp"
#include "common/stats.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/pool.hpp"
#include "photonics/mr_bank.hpp"
#include "thermal/heatmap.hpp"
#include "thermal/solver.hpp"

namespace safelight {
namespace {

// ------------------------------------------------------- bank crosstalk

double bank_crosstalk_error(double q_factor, std::size_t channels) {
  phot::MrGeometry geometry;
  geometry.q_factor = q_factor;
  const phot::Microring reference(geometry, 1550.0);
  const phot::WdmGrid grid(channels, 1550.0, reference.fsr_nm());
  phot::MrBank bank(geometry, grid);
  Rng rng(3);
  std::vector<double> weights(channels);
  for (auto& w : weights) w = rng.uniform(-0.9, 0.9);
  bank.set_weights(weights);
  const auto effective = bank.effective_weights();
  double err = 0.0;
  for (std::size_t c = 0; c < channels; ++c) {
    err = std::max(err, std::abs(effective[c] - weights[c]));
  }
  return err;
}

TEST(BankPhysics, HigherQReducesCrosstalk) {
  // Same 20-channel grid, sharper rings -> less inter-channel interference.
  const double coarse = bank_crosstalk_error(10'000.0, 20);
  const double fine = bank_crosstalk_error(40'000.0, 20);
  EXPECT_LT(fine, coarse);
}

TEST(BankPhysics, DenserGridNeedsHigherQ) {
  // 150 channels at CONV-grade Q would be unusable; at FC-grade Q the
  // error returns to the CONV block's level.
  const double wrong_q = bank_crosstalk_error(20'000.0, 150);
  const double right_q = bank_crosstalk_error(150'000.0, 150);
  EXPECT_GT(wrong_q, 5.0 * right_q);
  EXPECT_LT(right_q, 0.05);
}

TEST(BankPhysics, DotProductLinearInActivations) {
  phot::MrGeometry geometry;
  const phot::Microring reference(geometry, 1550.0);
  const phot::WdmGrid grid(8, 1550.0, reference.fsr_nm());
  phot::MrBank bank(geometry, grid);
  bank.set_weights({0.5, -0.3, 0.8, 0.1, -0.6, 0.2, 0.9, -0.4});
  const std::vector<double> a = {1, 0, 0.5, 0.25, 0, 1, 0.75, 0.1};
  std::vector<double> a2(a);
  for (auto& v : a2) v *= 2.0;
  EXPECT_NEAR(bank.dot_product(a2), 2.0 * bank.dot_product(a), 1e-9);
}

// ------------------------------------------------------- executor sweep

class AdcBitsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdcBitsSweep, QuantizationErrorShrinksWithBits) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4 * 36, 5, rng);
  nn::Tensor x({2, 1, 6, 6});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  const nn::Tensor exact = model.forward(x, false);

  config.adc_bits = GetParam();
  accel::ExecutorOptions options;
  options.quantize_weights = false;
  options.quantize_activations = true;
  accel::OnnExecutor executor(config, options);
  const float err = nn::max_abs_diff(exact, executor.forward(model, x));

  config.adc_bits = GetParam() + 2;
  accel::OnnExecutor finer(config, options);
  const float err_finer = nn::max_abs_diff(exact, finer.forward(model, x));
  EXPECT_LE(err_finer, err + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcBitsSweep, ::testing::Values(3u, 5u, 7u));

TEST(Executor, WeightQuantizationCanBeDisabled) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Linear>(4, 3, rng);
  const auto before = model.params()[0]->value;
  accel::ExecutorOptions options;
  options.quantize_weights = false;
  accel::OnnExecutor executor(accel::AcceleratorConfig::crosslight(),
                              options);
  executor.condition_weights(model);
  EXPECT_FLOAT_EQ(nn::max_abs_diff(before, model.params()[0]->value), 0.0f);
}

// ------------------------------------------------------- energy model

TEST(EnergyDepth, LatencyIsMaxOfConcurrentBlocks) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  accel::MacCounts conv_only;
  conv_only.conv_macs = 100'000'000;
  accel::MacCounts fc_only;
  fc_only.fc_macs = 100'000'000;
  accel::MacCounts both;
  both.conv_macs = 100'000'000;
  both.fc_macs = 100'000'000;
  const double conv_lat =
      accel::estimate_inference(conv_only, config).latency_us;
  const double fc_lat = accel::estimate_inference(fc_only, config).latency_us;
  const double both_lat = accel::estimate_inference(both, config).latency_us;
  EXPECT_NEAR(both_lat, std::max(conv_lat, fc_lat), 1e-9);
  // The CONV block has ~34x fewer slots, so equal MACs take longer there.
  EXPECT_GT(conv_lat, fc_lat);
}

TEST(EnergyDepth, EnergyScalesWithLatency) {
  const accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  accel::MacCounts small;
  small.conv_macs = 10'000'000;
  accel::MacCounts large;
  large.conv_macs = 100'000'000;
  const auto report_small = accel::estimate_inference(small, config);
  const auto report_large = accel::estimate_inference(large, config);
  EXPECT_GT(report_large.laser_uj, report_small.laser_uj * 5.0);
  EXPECT_GT(report_large.total_uj(), report_small.total_uj());
}

// ------------------------------------------------------- thermal extras

TEST(ThermalDepth, TwoUnequalSourcesKeepOrdering) {
  thermal::GridConfig config;
  config.rows = 21;
  config.cols = 31;  // non-square
  thermal::ThermalGrid grid(config);
  grid.add_power_mw(10, 8, 60.0);
  grid.add_power_mw(10, 24, 20.0);
  ASSERT_TRUE(thermal::solve_steady_state(grid).converged);
  EXPECT_GT(grid.delta_t(10, 8), grid.delta_t(10, 24));
  EXPECT_GT(grid.delta_t(10, 24), 0.0);
}

TEST(ThermalDepth, FlatFieldHeatmapDoesNotDivideByZero) {
  thermal::GridConfig config;
  config.rows = 3;
  config.cols = 3;
  thermal::ThermalGrid grid(config);  // all ambient
  const std::string art = thermal::render_ascii_heatmap(grid);
  EXPECT_NE(art.find("scale:"), std::string::npos);
}

TEST(ThermalDepth, SolverHandlesSingleCellGrid) {
  thermal::GridConfig config;
  config.rows = 1;
  config.cols = 1;
  thermal::ThermalGrid grid(config);
  grid.add_power_mw(0, 0, 10.0);
  const auto result = thermal::solve_steady_state(grid);
  EXPECT_TRUE(result.converged);
  // No lateral neighbors: delta-T = P / g_sink = 0.01 W / 1.6e-4 W/K.
  EXPECT_NEAR(grid.delta_t(0, 0), 0.01 / 1.6e-4, 1.0);
}

// ------------------------------------------------------- corruption extras

TEST(CorruptionDepth, ConvTargetSparesLinearWeights) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 2, 3, 1, 1, rng);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(2 * 16, 4, rng);
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{1, 2, 4};
  config.fc = accel::BlockDims{1, 2, 10};
  accel::WeightStationaryMapping mapping(model, config);

  nn::Param* linear_w = nullptr;
  for (nn::Param* p : model.params()) {
    if (p->kind == nn::ParamKind::kLinearWeight) linear_w = p;
  }
  ASSERT_NE(linear_w, nullptr);
  const nn::Tensor before = linear_w->value;

  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kActuation;
  scenario.target = attack::AttackTarget::kConvBlock;
  scenario.fraction = 1.0;
  scenario.seed = 5;
  attack::apply_attack(mapping, scenario);
  EXPECT_FLOAT_EQ(nn::max_abs_diff(before, linear_w->value), 0.0f);
}

TEST(CorruptionDepth, BiasesAndBatchNormAlwaysUntouched) {
  const auto setup_model = []() {
    Rng rng(5);
    auto model = nn::make_resnet18(
        []() {
          nn::ModelConfig config;
          config.in_channels = 3;
          config.image_size = 12;
          config.width = 4;
          return config;
        }());
    return model;
  };
  auto model = setup_model();
  std::vector<nn::Tensor> electronic_before;
  for (nn::Param* p : model->params()) {
    if (p->kind == nn::ParamKind::kElectronic) {
      electronic_before.push_back(p->value);
    }
  }
  accel::AcceleratorConfig config = accel::AcceleratorConfig::scaled(50);
  accel::WeightStationaryMapping mapping(*model, config);
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kHotspot;
  scenario.target = attack::AttackTarget::kBothBlocks;
  scenario.fraction = 0.2;
  scenario.seed = 3;
  attack::apply_attack(mapping, scenario);
  std::size_t i = 0;
  for (nn::Param* p : model->params()) {
    if (p->kind == nn::ParamKind::kElectronic) {
      EXPECT_FLOAT_EQ(nn::max_abs_diff(electronic_before[i], p->value), 0.0f);
      ++i;
    }
  }
}

// ------------------------------------------------------- misc edges

TEST(MiscEdges, BoxStatsTwoElements) {
  const BoxStats s = box_stats({1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.q1, 1.5);
  EXPECT_DOUBLE_EQ(s.q3, 2.5);
}

TEST(MiscEdges, SequentialAccuracyRejectsMismatchedLabels) {
  Rng rng(3);
  nn::Sequential model;
  model.emplace<nn::Linear>(2, 2, rng);
  nn::Tensor x({2, 2});
  EXPECT_THROW(model.accuracy(x, {0}), std::invalid_argument);
}

TEST(MiscEdges, DatasetTakeZeroThrows) {
  nn::Dataset d;
  d.num_classes = 2;
  d.images = nn::Tensor({2, 1, 1, 1});
  d.labels = {0, 1};
  EXPECT_THROW(d.take(0), std::invalid_argument);
}

}  // namespace
}  // namespace safelight
