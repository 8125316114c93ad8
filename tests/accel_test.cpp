// Tests for the accelerator architecture, slot addressing, weight-stationary
// mapping, VDP units, executor and energy model.
#include <gtest/gtest.h>

#include <set>

#include "accel/energy.hpp"
#include "accel/executor.hpp"
#include "accel/mapping.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"
#include "nn/synthetic.hpp"
#include "support/vdp.hpp"

namespace safelight::accel {
namespace {

// ---------------------------------------------------------------- arch

TEST(Arch, CrosslightDimensionsMatchPaper) {
  const AcceleratorConfig config = AcceleratorConfig::crosslight();
  // Paper §IV: CONV block m=100 VDP units of 20x20 MRs; FC block n=60 VDP
  // units of 150x150 MRs.
  EXPECT_EQ(config.conv.units, 100u);
  EXPECT_EQ(config.conv.banks_per_unit, 20u);
  EXPECT_EQ(config.conv.mrs_per_bank, 20u);
  EXPECT_EQ(config.conv.slot_count(), 40'000u);
  EXPECT_EQ(config.fc.units, 60u);
  EXPECT_EQ(config.fc.slot_count(), 1'350'000u);
  EXPECT_EQ(config.fc.bank_count(), 9'000u);
}

TEST(Arch, FcBlockUsesHighQRings) {
  const AcceleratorConfig config = AcceleratorConfig::crosslight();
  EXPECT_GT(config.fc_mr.q_factor, config.conv_mr.q_factor);
  // Linewidth must stay well below channel spacing in both blocks.
  for (BlockKind kind : {BlockKind::kConv, BlockKind::kFc}) {
    const phot::WdmGrid grid = config.bank_grid(kind);
    const phot::Microring ring(config.geometry(kind),
                               config.center_wavelength_nm);
    EXPECT_LT(ring.fwhm_nm() * 3.0, grid.spacing_nm())
        << to_string(kind);
  }
}

TEST(Arch, ScaledShrinksUnitCounts) {
  const AcceleratorConfig config = AcceleratorConfig::scaled(10);
  EXPECT_EQ(config.conv.units, 10u);
  EXPECT_EQ(config.fc.units, 6u);
  EXPECT_EQ(config.conv.banks_per_unit, 20u);  // per-unit shape preserved
  const AcceleratorConfig floor = AcceleratorConfig::scaled(1000);
  EXPECT_EQ(floor.conv.units, 1u);
  EXPECT_EQ(floor.fc.units, 1u);
}

TEST(Arch, ValidationCatchesBadDims) {
  AcceleratorConfig config = AcceleratorConfig::crosslight();
  config.conv.units = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AcceleratorConfig::crosslight();
  config.dac_bits = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- slots

TEST(Slot, FlatRoundTripConv) {
  const BlockDims dims{100, 20, 20};
  for (std::size_t flat : {0u, 1u, 399u, 400u, 20'000u, 39'999u}) {
    const SlotAddress addr = slot_from_flat(dims, BlockKind::kConv, flat);
    EXPECT_EQ(slot_flat_index(dims, addr), flat);
  }
  EXPECT_THROW(slot_from_flat(dims, BlockKind::kConv, 40'000u),
               std::invalid_argument);
}

TEST(Slot, LayoutIsMrFastest) {
  const BlockDims dims{2, 3, 4};
  const SlotAddress a = slot_from_flat(dims, BlockKind::kConv, 0);
  const SlotAddress b = slot_from_flat(dims, BlockKind::kConv, 1);
  EXPECT_EQ(a.unit, b.unit);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(b.mr, a.mr + 1);
  // Crossing a bank boundary.
  const SlotAddress c = slot_from_flat(dims, BlockKind::kConv, 4);
  EXPECT_EQ(c.bank, 1u);
  EXPECT_EQ(c.mr, 0u);
}

TEST(Slot, BankRoundTrip) {
  const BlockDims dims{60, 150, 150};
  for (std::size_t flat : {0u, 149u, 150u, 8'999u}) {
    const BankAddress addr = bank_from_flat(dims, BlockKind::kFc, flat);
    EXPECT_EQ(bank_flat_index(dims, addr), flat);
  }
}

TEST(Slot, BankOfSlotDropsMrIndex) {
  const SlotAddress slot{BlockKind::kFc, 3, 7, 11};
  const BankAddress bank = bank_of_slot(slot);
  EXPECT_EQ(bank.unit, 3u);
  EXPECT_EQ(bank.bank, 7u);
  EXPECT_EQ(bank.block, BlockKind::kFc);
}

TEST(Slot, ToStringIsReadable) {
  const SlotAddress slot{BlockKind::kConv, 1, 2, 3};
  EXPECT_EQ(slot.to_string(), "CONV/u1/b2/m3");
}

// ---------------------------------------------------------------- mapping

nn::Sequential make_mapped_model(std::size_t conv_out = 4,
                                 std::size_t fc_out = 6) {
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, conv_out, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(conv_out * 16, fc_out, rng);
  return model;
}

AcceleratorConfig tiny_accelerator() {
  AcceleratorConfig config = AcceleratorConfig::crosslight();
  config.conv = BlockDims{2, 2, 4};   // 16 slots
  config.fc = BlockDims{1, 3, 10};    // 30 slots
  return config;
}

TEST(Mapping, CountsAndPasses) {
  nn::Sequential model = make_mapped_model();
  const AcceleratorConfig config = tiny_accelerator();
  WeightStationaryMapping mapping(model, config);
  // Conv weights: 4 * 2 * 9 = 72 on 16 slots -> 5 passes.
  EXPECT_EQ(mapping.weight_count(BlockKind::kConv), 72u);
  EXPECT_EQ(mapping.passes(BlockKind::kConv), 5u);
  // FC weights: 6 * 64 = 384 on 30 slots -> 13 passes.
  EXPECT_EQ(mapping.weight_count(BlockKind::kFc), 384u);
  EXPECT_EQ(mapping.passes(BlockKind::kFc), 13u);
}

TEST(Mapping, EveryWeightHasASlotAndInverse) {
  nn::Sequential model = make_mapped_model();
  const AcceleratorConfig config = tiny_accelerator();
  WeightStationaryMapping mapping(model, config);
  for (BlockKind kind : {BlockKind::kConv, BlockKind::kFc}) {
    const std::size_t count = mapping.weight_count(kind);
    for (std::size_t w = 0; w < count; ++w) {
      const SlotAddress slot = mapping.slot_of_weight(kind, w);
      const auto refs = mapping.weights_on_slot(slot);
      bool found = false;
      const WeightRef expected = mapping.weight(kind, w);
      for (const auto& ref : refs) {
        if (ref.param == expected.param && ref.offset == expected.offset) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << to_string(kind) << " weight " << w;
    }
  }
}

TEST(Mapping, SlotServesOneWeightPerPass) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  const SlotAddress slot{BlockKind::kConv, 0, 0, 0};
  const auto refs = mapping.weights_on_slot(slot);
  EXPECT_EQ(refs.size(), mapping.passes(BlockKind::kConv));
  // Distinct weights across passes.
  std::set<std::pair<const void*, std::size_t>> seen;
  for (const auto& ref : refs) {
    seen.insert({static_cast<const void*>(ref.param), ref.offset});
  }
  EXPECT_EQ(seen.size(), refs.size());
}

TEST(Mapping, BankWeightsGroupedByPass) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  const BankAddress bank{BlockKind::kConv, 0, 0};
  const auto groups = mapping.bank_weights(bank);
  EXPECT_EQ(groups.size(), mapping.passes(BlockKind::kConv));
  for (const auto& group : groups) {
    EXPECT_EQ(group.size(), 4u);  // mrs_per_bank
  }
  // Consecutive weights within a pass share the bank (cluster property).
  EXPECT_EQ(groups[0][0].offset + 1, groups[0][1].offset);
}

TEST(Mapping, PartialLastPassHasNullSlots) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  // Conv: 72 weights, 16 slots -> last pass holds 72 - 64 = 8 weights in
  // the first two banks; the last bank of the last pass is empty.
  const BankAddress last_bank{BlockKind::kConv, 1, 1};
  const auto groups = mapping.bank_weights(last_bank);
  EXPECT_EQ(groups.size(), 4u);  // only 4 passes reach this bank
}

TEST(Mapping, ElectronicParamsNeverMapped) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  for (BlockKind kind : {BlockKind::kConv, BlockKind::kFc}) {
    const std::size_t count = mapping.weight_count(kind);
    for (std::size_t w = 0; w < count; ++w) {
      EXPECT_NE(mapping.weight(kind, w).param->kind,
                nn::ParamKind::kElectronic);
    }
  }
}

TEST(Mapping, ScalesTrackAbsMax) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  nn::Param* conv_w = model.params()[0];
  EXPECT_FLOAT_EQ(mapping.scale_of(conv_w), conv_w->value.abs_max());
  conv_w->value[0] = 100.0f;
  mapping.refresh_scales();
  EXPECT_FLOAT_EQ(mapping.scale_of(conv_w), 100.0f);
}

TEST(Mapping, ScaleOfUnmappedParamThrows) {
  nn::Sequential model = make_mapped_model();
  WeightStationaryMapping mapping(model, tiny_accelerator());
  nn::Param unrelated("x", nn::ParamKind::kElectronic, nn::Tensor({1}));
  EXPECT_THROW(mapping.scale_of(&unrelated), std::invalid_argument);
}

// ---------------------------------------------------------------- vdp

TEST(VdpUnit, ComputesMatrixVectorProduct) {
  phot::MrGeometry geometry;
  VdpUnit unit(3, 4, geometry, 1550.0);
  const std::vector<std::vector<double>> weights = {
      {0.5, -0.3, 0.2, 0.7},
      {0.1, 0.9, -0.6, 0.0},
      {-0.2, 0.4, 0.3, -0.8}};
  unit.set_weights(weights);
  const std::vector<double> x = {0.5, 0.25, 1.0, 0.75};
  const std::vector<double> out = unit.multiply(x);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    double ideal = 0;
    for (std::size_t i = 0; i < 4; ++i) ideal += weights[b][i] * x[i];
    EXPECT_NEAR(out[b], ideal, 0.1) << "bank " << b;
  }
}

TEST(VdpUnit, RejectsBadShapes) {
  phot::MrGeometry geometry;
  VdpUnit unit(2, 3, geometry, 1550.0);
  EXPECT_THROW(unit.set_weights({{0.1, 0.2, 0.3}}), std::invalid_argument);
  EXPECT_THROW(unit.multiply({1.0}), std::invalid_argument);
  EXPECT_THROW(unit.bank(5), std::invalid_argument);
}

// ---------------------------------------------------------------- executor

TEST(Executor, ConditioningIsNearlyLossless) {
  nn::Sequential model = make_mapped_model();
  const auto before = nn::snapshot_state(model);
  OnnExecutor executor(tiny_accelerator());
  executor.condition_weights(model);
  const auto params = model.params();
  // 10-bit DAC on [-1,1] x scale: max error = scale / (2^10 - 1) / 2 * 2.
  for (nn::Param* p : params) {
    if (p->kind == nn::ParamKind::kElectronic) continue;
    const float scale = p->value.abs_max();
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      EXPECT_NEAR(p->value[i], before[0].numel() ? p->value[i] : 0.0f,
                  scale);  // sanity: finite
    }
  }
  EXPECT_TRUE(model.forward(nn::Tensor({1, 2, 4, 4}), false).all_finite());
}

TEST(Executor, UnattackedMatchesPureForward) {
  nn::Sequential model = make_mapped_model();
  Rng rng(9);
  nn::Tensor x({4, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  const nn::Tensor reference = model.forward(x, false);

  OnnExecutor executor(tiny_accelerator());
  executor.condition_weights(model);
  const nn::Tensor conditioned = executor.forward(model, x);
  // DAC conditioning perturbs logits only slightly.
  EXPECT_LT(nn::max_abs_diff(reference, conditioned),
            0.05f * (1.0f + reference.abs_max()));
}

TEST(Executor, AdcQuantizationBounded) {
  nn::Sequential model = make_mapped_model();
  Rng rng(10);
  nn::Tensor x({2, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  OnnExecutor plain(tiny_accelerator());
  plain.condition_weights(model);
  const nn::Tensor without = plain.forward(model, x);

  ExecutorOptions options;
  options.quantize_activations = true;
  OnnExecutor quantizing(tiny_accelerator(), options);
  const nn::Tensor with = quantizing.forward(model, x);
  EXPECT_GT(nn::max_abs_diff(without, with), 0.0f);  // ADC does something
  EXPECT_LT(nn::max_abs_diff(without, with),
            0.1f * (1.0f + without.abs_max()));      // ...but not much
}

TEST(Executor, EvaluateCountsAccuracy) {
  nn::SynthConfig data_config;
  data_config.count = 20;
  data_config.image_size = 12;
  const nn::Dataset data = nn::synth_digits(data_config);
  Rng rng(11);
  nn::Sequential model;
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(144, 10, rng);
  OnnExecutor executor(tiny_accelerator());
  const double acc = executor.evaluate(model, data);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// ---------------------------------------------------------------- energy

TEST(Energy, MacCountsLeNet) {
  nn::ModelConfig config;
  auto model = nn::make_cnn1(config);
  const MacCounts macs = count_macs(*model, {1, 1, 28, 28});
  // conv1: 24*24*6*25 = 86400; conv2: 8*8*16*150 = 153600.
  EXPECT_EQ(macs.conv_macs, 86'400u + 153'600u);
  // fc: 256*120 + 120*84 + 84*10 = 41640.
  EXPECT_EQ(macs.fc_macs, 41'640u);
}

TEST(Energy, MacCountsScaleWithBatch) {
  nn::ModelConfig config;
  auto model = nn::make_cnn1(config);
  const MacCounts one = count_macs(*model, {1, 1, 28, 28});
  const MacCounts four = count_macs(*model, {4, 1, 28, 28});
  EXPECT_EQ(four.total(), 4u * one.total());
}

TEST(Energy, ReportIsPositiveAndDecomposes) {
  nn::ModelConfig config;
  auto model = nn::make_cnn1(config);
  const MacCounts macs = count_macs(*model, {1, 1, 28, 28});
  const EnergyReport report =
      estimate_inference(macs, AcceleratorConfig::crosslight());
  EXPECT_GT(report.latency_us, 0.0);
  EXPECT_GT(report.laser_uj, 0.0);
  EXPECT_GT(report.tuning_uj, 0.0);
  EXPECT_GT(report.converter_uj, 0.0);
  EXPECT_GT(report.detector_uj, 0.0);
  EXPECT_NEAR(report.total_uj(),
              report.laser_uj + report.tuning_uj + report.converter_uj +
                  report.detector_uj,
              1e-12);
  EXPECT_GT(report.macs_per_nj(macs.total()), 0.0);
}

TEST(Energy, MoreMacsMoreLatency) {
  nn::ModelConfig config;
  auto model = nn::make_cnn1(config);
  const MacCounts one = count_macs(*model, {1, 1, 28, 28});
  const MacCounts eight = count_macs(*model, {8, 1, 28, 28});
  const AcceleratorConfig accel = AcceleratorConfig::crosslight();
  EXPECT_GT(estimate_inference(eight, accel).latency_us,
            estimate_inference(one, accel).latency_us);
}

}  // namespace
}  // namespace safelight::accel
