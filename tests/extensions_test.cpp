// Tests for the extension attack surfaces: compromised-ADC read-out attacks
// (paper §II.C) and the hotspot quarantine.
#include <gtest/gtest.h>

#include "accel/executor.hpp"
#include "attacks/adc_attack.hpp"
#include "attacks/corruption.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"

namespace safelight {
namespace {

// ---------------------------------------------------------------- adc

TEST(AdcAttack, PlanCountsFollowFraction) {
  const auto config = accel::AcceleratorConfig::crosslight();
  attack::AdcAttackConfig adc;
  adc.fraction = 0.10;
  adc.seed = 1;
  const attack::AdcAttackPlan plan = attack::plan_adc_attack(config, adc);
  EXPECT_EQ(plan.conv_rows.size(), 200u);  // 10% of 2000 CONV rows
  EXPECT_EQ(plan.fc_rows.size(), 900u);    // 10% of 9000 FC rows
}

TEST(AdcAttack, DisabledPlanIsEmpty) {
  const auto config = accel::AcceleratorConfig::crosslight();
  const attack::AdcAttackPlan plan =
      attack::plan_adc_attack(config, attack::AdcAttackConfig{});
  EXPECT_TRUE(plan.conv_rows.empty());
  EXPECT_TRUE(plan.fc_rows.empty());
}

TEST(AdcAttack, ConfigValidation) {
  attack::AdcAttackConfig adc;
  adc.fraction = 1.5;
  EXPECT_THROW(adc.validate(), std::invalid_argument);
}

TEST(AdcAttack, StuckFullScalePinsVictimChannels) {
  attack::AdcAttackPlan plan;
  plan.payload = attack::AdcPayload::kStuckFullScale;
  plan.conv_rows = {1};
  nn::Tensor t({2, 4, 2, 2});
  t.fill(0.25f);
  attack::apply_adc_payload(t, plan, accel::BlockKind::kConv,
                            /*rows_in_block=*/4, /*full_scale=*/1.0f);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t i = 0; i < 4; ++i) {
        const float v = t[(n * 4 + c) * 4 + i];
        if (c % 4 == 1) {
          EXPECT_FLOAT_EQ(v, 1.0f);
        } else {
          EXPECT_FLOAT_EQ(v, 0.25f);
        }
      }
    }
  }
}

TEST(AdcAttack, SignFlipInvertsVictims) {
  attack::AdcAttackPlan plan;
  plan.payload = attack::AdcPayload::kSignFlip;
  plan.fc_rows = {0};
  nn::Tensor t({1, 3}, {0.5f, -0.25f, 0.75f});
  attack::apply_adc_payload(t, plan, accel::BlockKind::kFc, 3, 1.0f);
  EXPECT_FLOAT_EQ(t[0], -0.5f);
  EXPECT_FLOAT_EQ(t[1], -0.25f);  // untouched
  EXPECT_FLOAT_EQ(t[2], 0.75f);
}

TEST(AdcAttack, MsbFlipShiftsByHalfScale) {
  attack::AdcAttackPlan plan;
  plan.payload = attack::AdcPayload::kMsbFlip;
  plan.fc_rows = {0};
  nn::Tensor t({1, 1}, {0.6f});
  attack::apply_adc_payload(t, plan, accel::BlockKind::kFc, 1, 2.0f);
  EXPECT_FLOAT_EQ(t[0], -0.4f);  // 0.6 - 1.0
  t[0] = -0.6f;
  attack::apply_adc_payload(t, plan, accel::BlockKind::kFc, 1, 2.0f);
  EXPECT_FLOAT_EQ(t[0], 0.4f);
}

TEST(AdcAttack, TimeSharingStrideHitsAliasedChannels) {
  // rows_in_block = 2, victim row 0 -> channels 0 and 2 of a 4-channel
  // tensor are corrupted (they time-share the same physical ADC).
  attack::AdcAttackPlan plan;
  plan.payload = attack::AdcPayload::kStuckFullScale;
  plan.conv_rows = {0};
  nn::Tensor t({1, 4, 1, 1});
  attack::apply_adc_payload(t, plan, accel::BlockKind::kConv, 2, 1.0f);
  EXPECT_FLOAT_EQ(t[0], 1.0f);
  EXPECT_FLOAT_EQ(t[1], 0.0f);
  EXPECT_FLOAT_EQ(t[2], 1.0f);
  EXPECT_FLOAT_EQ(t[3], 0.0f);
}

TEST(AdcAttack, ZeroFullScaleIsNoop) {
  attack::AdcAttackPlan plan;
  plan.payload = attack::AdcPayload::kStuckFullScale;
  plan.fc_rows = {0};
  nn::Tensor t({1, 1}, {0.5f});
  attack::apply_adc_payload(t, plan, accel::BlockKind::kFc, 1, 0.0f);
  EXPECT_FLOAT_EQ(t[0], 0.5f);
}

TEST(AdcAttack, ExecutorHookDegradesAccuracy) {
  Rng rng(3);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4 * 64, 10, rng);

  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  accel::OnnExecutor executor(config);
  executor.condition_weights(model);
  nn::Tensor x({2, 1, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  const nn::Tensor clean = executor.forward(model, x);

  attack::AdcAttackConfig adc;
  adc.fraction = 0.5;
  adc.payload = attack::AdcPayload::kStuckFullScale;
  const attack::AdcAttackPlan plan = attack::plan_adc_attack(config, adc);
  executor.set_readout_hook(
      [&plan, &config](nn::Tensor& t, accel::BlockKind kind,
                       float full_scale) {
        attack::apply_adc_payload(t, plan, kind,
                                  config.block(kind).bank_count(),
                                  full_scale);
      });
  EXPECT_TRUE(executor.has_readout_hook());
  const nn::Tensor attacked = executor.forward(model, x);
  EXPECT_GT(nn::max_abs_diff(clean, attacked), 0.01f);

  executor.set_readout_hook(nullptr);
  EXPECT_FALSE(executor.has_readout_hook());
  const nn::Tensor restored = executor.forward(model, x);
  EXPECT_FLOAT_EQ(nn::max_abs_diff(clean, restored), 0.0f);
}

TEST(AdcAttack, PayloadNames) {
  EXPECT_EQ(attack::to_string(attack::AdcPayload::kStuckFullScale),
            "stuck-full-scale");
  EXPECT_EQ(attack::to_string(attack::AdcPayload::kSignFlip), "sign-flip");
  EXPECT_EQ(attack::to_string(attack::AdcPayload::kMsbFlip), "msb-flip");
}

// ---------------------------------------------------------------- quarantine

namespace {

nn::Sequential make_quarantine_model() {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4 * 16, 6, rng);
  return model;
}

accel::AcceleratorConfig quarantine_accel() {
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{2, 2, 4};
  config.fc = accel::BlockDims{2, 4, 10};
  return config;
}

attack::AttackScenario hotspot_scenario() {
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kHotspot;
  scenario.target = attack::AttackTarget::kConvBlock;
  scenario.fraction = 0.25;
  scenario.seed = 5;
  return scenario;
}

}  // namespace

TEST(Quarantine, FullSpareCapacityNeutralizesHotspot) {
  nn::Sequential model = make_quarantine_model();
  const auto before = nn::snapshot_state(model);
  accel::WeightStationaryMapping mapping(model, quarantine_accel());
  attack::CorruptionConfig config;
  config.quarantine.enabled = true;
  config.quarantine.detect_threshold_k = 0.1;   // sentinels see everything
  config.quarantine.spare_bank_fraction = 1.0;  // unlimited spares
  const auto stats =
      attack::apply_attack(mapping, hotspot_scenario(), config);
  EXPECT_GT(stats.quarantined_banks, 0u);
  EXPECT_EQ(stats.corrupted_weights, 0u);
  const auto after = nn::snapshot_state(model);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(nn::max_abs_diff(before[i], after[i]), 0.0f);
  }
}

TEST(Quarantine, LimitedBudgetRescuesHottestFirst) {
  nn::Sequential unprotected = make_quarantine_model();
  accel::WeightStationaryMapping mapping_a(unprotected, quarantine_accel());
  const auto stats_plain =
      attack::apply_attack(mapping_a, hotspot_scenario());

  nn::Sequential protected_model = make_quarantine_model();
  accel::WeightStationaryMapping mapping_b(protected_model,
                                           quarantine_accel());
  attack::CorruptionConfig config;
  config.quarantine.enabled = true;
  config.quarantine.detect_threshold_k = 5.0;
  config.quarantine.spare_bank_fraction = 0.25;  // 1 of 4 CONV banks
  const auto stats_protected =
      attack::apply_attack(mapping_b, hotspot_scenario(), config);

  EXPECT_EQ(stats_protected.quarantined_banks, 1u);
  EXPECT_LT(stats_protected.corrupted_weights, stats_plain.corrupted_weights);
  EXPECT_GT(stats_protected.corrupted_weights, 0u);  // budget exhausted
}

TEST(Quarantine, HighThresholdDetectsNothing) {
  nn::Sequential model = make_quarantine_model();
  accel::WeightStationaryMapping mapping(model, quarantine_accel());
  attack::CorruptionConfig config;
  config.quarantine.enabled = true;
  config.quarantine.detect_threshold_k = 1e6;
  config.quarantine.spare_bank_fraction = 1.0;
  const auto stats =
      attack::apply_attack(mapping, hotspot_scenario(), config);
  EXPECT_EQ(stats.quarantined_banks, 0u);
  EXPECT_GT(stats.corrupted_weights, 0u);
}

TEST(Quarantine, DisabledByDefault) {
  nn::Sequential model = make_quarantine_model();
  accel::WeightStationaryMapping mapping(model, quarantine_accel());
  const auto stats = attack::apply_attack(mapping, hotspot_scenario());
  EXPECT_EQ(stats.quarantined_banks, 0u);
}

TEST(Quarantine, ConfigValidation) {
  attack::QuarantineConfig config;
  config.spare_bank_fraction = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = attack::QuarantineConfig{};
  config.detect_threshold_k = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace safelight
