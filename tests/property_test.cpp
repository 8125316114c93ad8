// Property-style parameterized sweeps over the simulator's invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attacks/actuation.hpp"
#include "attacks/corruption.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "photonics/converters.hpp"
#include "photonics/microring.hpp"
#include "thermal/solver.hpp"

namespace safelight {
namespace {

// ------------------------------------------------ actuation fraction sweep

class ActuationFractionProperty : public ::testing::TestWithParam<double> {};

TEST_P(ActuationFractionProperty, VictimCountTracksFraction) {
  const double fraction = GetParam();
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{4, 4, 8};  // 128 slots
  config.fc = accel::BlockDims{2, 6, 12};   // 144 slots

  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kActuation;
  scenario.target = attack::AttackTarget::kBothBlocks;
  scenario.fraction = fraction;
  scenario.seed = 17;
  const auto trojans = attack::plan_actuation_attack(config, scenario);
  const double population = 128.0 + 144.0;
  EXPECT_EQ(trojans.size(),
            static_cast<std::size_t>(std::llround(fraction * population)));
}

TEST_P(ActuationFractionProperty, CorruptedWeightFractionMatches) {
  // For a model saturating every slot across passes, the corrupted-weight
  // fraction equals the attacked-slot fraction (each slot serves the same
  // number of weights, modulo the final partial pass).
  const double fraction = GetParam();
  Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(2, 8, 3, 1, 1, rng, /*bias=*/false);  // 144 w
  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{2, 3, 4};  // 24 slots -> 6 passes
  config.fc = accel::BlockDims{1, 1, 1};

  accel::WeightStationaryMapping mapping(model, config);
  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kActuation;
  scenario.target = attack::AttackTarget::kConvBlock;
  scenario.fraction = fraction;
  scenario.seed = 29;
  const auto stats = attack::apply_attack(mapping, scenario);
  const double expected =
      fraction * static_cast<double>(mapping.weight_count(
                     accel::BlockKind::kConv));
  // Allow rounding (victims round to whole slots serving 6 weights each)
  // plus rare already-at-stuck-value weights.
  EXPECT_NEAR(static_cast<double>(stats.corrupted_weights), expected,
              6.0 + 0.05 * expected);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ActuationFractionProperty,
                         ::testing::Values(0.0, 0.01, 0.05, 0.10, 0.25,
                                           0.5));

// ------------------------------------------------ mapping dimension sweep

struct MappingCase {
  std::size_t units, banks, mrs, conv_out;
};

class MappingProperty : public ::testing::TestWithParam<MappingCase> {};

TEST_P(MappingProperty, SlotAddressingInvariants) {
  const MappingCase c = GetParam();
  Rng rng(7);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(3, c.conv_out, 3, 1, 1, rng, /*bias=*/false);
  model.emplace<nn::Flatten>();

  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{c.units, c.banks, c.mrs};
  accel::WeightStationaryMapping mapping(model, config);

  const std::size_t count = mapping.weight_count(accel::BlockKind::kConv);
  EXPECT_EQ(count, c.conv_out * 27);
  const std::size_t slots = config.conv.slot_count();
  EXPECT_EQ(mapping.passes(accel::BlockKind::kConv),
            (count + slots - 1) / slots);

  // Sum of per-slot weight counts covers every weight exactly once.
  std::size_t covered = 0;
  for (std::size_t flat = 0; flat < slots; ++flat) {
    const auto addr =
        accel::slot_from_flat(config.conv, accel::BlockKind::kConv, flat);
    covered += mapping.weights_on_slot(addr).size();
  }
  EXPECT_EQ(covered, count);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, MappingProperty,
    ::testing::Values(MappingCase{1, 1, 8, 2}, MappingCase{2, 3, 4, 4},
                      MappingCase{3, 2, 5, 16}, MappingCase{5, 4, 20, 3},
                      MappingCase{2, 2, 2, 32}));

// ------------------------------------------------ quantizer bits sweep

class QuantizerBitsProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantizerBitsProperty, ErrorBoundedByHalfStep) {
  const unsigned bits = GetParam();
  const phot::Quantizer q(phot::QuantizerConfig{bits, -1.0, 1.0});
  Rng rng(bits);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    EXPECT_LE(std::abs(q.quantize(v) - v), q.max_error() + 1e-12);
  }
}

TEST_P(QuantizerBitsProperty, MoreBitsSmallerStep) {
  const unsigned bits = GetParam();
  if (bits >= 16) return;
  const phot::Quantizer coarse(phot::QuantizerConfig{bits, -1.0, 1.0});
  const phot::Quantizer fine(phot::QuantizerConfig{bits + 1, -1.0, 1.0});
  EXPECT_GT(coarse.max_error(), fine.max_error());
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerBitsProperty,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u, 12u, 16u));

// ------------------------------------------------ microring Q sweep

class MicroringQProperty : public ::testing::TestWithParam<double> {};

/// Usable electro-optic tuning span of a weight MR [nm]: carrier injection
/// cannot sweep much past ~0.8 nm before free-carrier loss dominates (paper
/// §II.B).
constexpr double kEoTuningRangeNm = 0.8;

TEST_P(MicroringQProperty, FwhmAndInversionHold) {
  phot::MrGeometry geometry;
  geometry.q_factor = GetParam();
  phot::Microring ring(geometry, 1550.0);
  EXPECT_NEAR(ring.fwhm_nm(), 1550.0 / GetParam(), 1e-12);
  for (double target : {0.05, 0.5, 0.9}) {
    ring.imprint_weight(target);
    EXPECT_NEAR(ring.transmission(1550.0), target, 1e-9);
  }
  // Imprint detunings stay within the EO actuation range for the Q values
  // the accelerator uses (physical realizability; low-Q rings would need
  // more range, which is why the blocks use Q >= 20k).
  if (GetParam() >= 20'000.0) {
    ring.imprint_weight(0.97);
    EXPECT_LT(ring.detuning_nm(), kEoTuningRangeNm);
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, MicroringQProperty,
                         ::testing::Values(5'000.0, 20'000.0, 50'000.0,
                                           150'000.0));

// ------------------------------------------------ thermal grid size sweep

class ThermalSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThermalSizeProperty, PeakRiseStableAcrossGridSizes) {
  // With boundaries several decay lengths away, the source-cell rise must
  // not depend on the grid size (the solution is localized).
  const std::size_t side = GetParam();
  thermal::GridConfig config;
  config.rows = side;
  config.cols = side;
  thermal::ThermalGrid grid(config);
  grid.add_power_mw(side / 2, side / 2, 45.0);
  ASSERT_TRUE(thermal::solve_steady_state(grid).converged);
  const double peak = grid.delta_t(side / 2, side / 2);
  // Reference from a 41x41 solve.
  thermal::GridConfig ref_config;
  ref_config.rows = ref_config.cols = 41;
  thermal::ThermalGrid ref(ref_config);
  ref.add_power_mw(20, 20, 45.0);
  ASSERT_TRUE(thermal::solve_steady_state(ref).converged);
  EXPECT_NEAR(peak, ref.delta_t(20, 20), 0.02 * ref.delta_t(20, 20));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThermalSizeProperty,
                         ::testing::Values(25u, 31u, 51u, 61u));

// ------------------------------------------------ scenario grid sweep

class ScenarioGridProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ScenarioGridProperty, SizeIsCartesianProduct) {
  const auto [fraction_count, seed_count] = GetParam();
  std::vector<double> fractions;
  for (std::size_t i = 1; i <= fraction_count; ++i) {
    fractions.push_back(0.01 * static_cast<double>(i));
  }
  const auto grid = attack::scenario_grid(
      {attack::AttackVector::kActuation, attack::AttackVector::kHotspot},
      {attack::AttackTarget::kConvBlock, attack::AttackTarget::kFcBlock},
      fractions, seed_count);
  EXPECT_EQ(grid.size(), 2u * 2u * fraction_count * seed_count);
}

INSTANTIATE_TEST_SUITE_P(Grids, ScenarioGridProperty,
                         ::testing::Combine(::testing::Values(1u, 3u, 5u),
                                            ::testing::Values(1u, 4u, 10u)));

// ------------------------------------------------ corruption robustness

class CorruptionFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CorruptionFuzzProperty, NeverProducesNonFiniteWeights) {
  Rng rng(GetParam());
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(3 * 36, 5, rng);

  accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
  config.conv = accel::BlockDims{2, 2, 5};
  config.fc = accel::BlockDims{1, 4, 15};
  accel::WeightStationaryMapping mapping(model, config);

  Rng fuzz(GetParam() * 977 + 1);
  for (int round = 0; round < 6; ++round) {
    attack::AttackScenario scenario;
    scenario.vector = fuzz.bernoulli(0.5) ? attack::AttackVector::kActuation
                                          : attack::AttackVector::kHotspot;
    const int target = static_cast<int>(fuzz.uniform_int(0, 2));
    scenario.target = static_cast<attack::AttackTarget>(target);
    scenario.fraction = fuzz.uniform(0.0, 1.0);
    scenario.seed = fuzz.next_u64();
    attack::apply_attack(mapping, scenario);
    for (nn::Param* p : model.params()) {
      EXPECT_TRUE(p->value.all_finite()) << scenario.id();
    }
    // Model still produces finite logits.
    const nn::Tensor out = model.forward(nn::Tensor({1, 1, 6, 6}), false);
    EXPECT_TRUE(out.all_finite()) << scenario.id();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzzProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------ rng stream independence

TEST(RngStreamProperty, AdjacentDerivedSeedsProduceDisjointStreams) {
  // Sweeps hand out consecutive small integers as stream ids (base_seed + i,
  // placement s, s + 1, ...); seed_combine's splitmix64 mixing must turn
  // them into streams that neither agree at any position nor revisit each
  // other's values within a realistic draw budget. A regression to additive
  // seeding (engine(base + s)) fails the positionwise check immediately.
  constexpr std::size_t kDraws = 4096;
  for (const std::uint64_t base : {0ULL, 1ULL, 42ULL, 0xDEADBEEFULL}) {
    for (const std::uint64_t stream : {0ULL, 1ULL, 7ULL}) {
      SCOPED_TRACE("base=" + std::to_string(base) +
                   " stream=" + std::to_string(stream));
      Rng a(seed_combine(base, stream));
      Rng b(seed_combine(base, stream + 1));
      std::set<std::uint64_t> seen_a;
      std::size_t positionwise_equal = 0;
      std::vector<std::uint64_t> draws_b;
      draws_b.reserve(kDraws);
      for (std::size_t i = 0; i < kDraws; ++i) {
        const std::uint64_t va = a.next_u64();
        const std::uint64_t vb = b.next_u64();
        seen_a.insert(va);
        draws_b.push_back(vb);
        positionwise_equal += (va == vb) ? 1 : 0;
      }
      EXPECT_EQ(positionwise_equal, 0u);
      std::size_t overlap = 0;
      for (const std::uint64_t vb : draws_b) overlap += seen_a.count(vb);
      EXPECT_EQ(overlap, 0u);
    }
  }
  // Sanity: the same derived seed replays the identical stream.
  Rng c(seed_combine(42, 7));
  Rng d(seed_combine(42, 7));
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(RngStreamProperty, AttackPlanIsInvariantAcrossThreadConfig) {
  // Stochastic components draw only from explicit scenario seeds, never
  // from worker identity: the same plan must come out whether the process
  // is configured for 1 or 8 worker threads (the bit-reproducibility
  // contract behind resume and the golden files).
  auto plan_with_threads = [](std::size_t threads) {
    config::Overrides overrides = config::overrides();
    overrides.threads = threads;
    config::ScopedOverrides guard(overrides);
    accel::AcceleratorConfig config = accel::AcceleratorConfig::crosslight();
    attack::AttackScenario scenario;
    scenario.vector = attack::AttackVector::kActuation;
    scenario.target = attack::AttackTarget::kBothBlocks;
    scenario.fraction = 0.10;
    scenario.seed = 23;
    return attack::plan_actuation_attack(config, scenario);
  };
  const auto single = plan_with_threads(1);
  const auto pooled = plan_with_threads(8);
  ASSERT_FALSE(single.empty());
  ASSERT_EQ(single.size(), pooled.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_TRUE(single[i].victim_slot == pooled[i].victim_slot)
        << "trojan " << i << ": " << single[i].victim_slot.to_string()
        << " vs " << pooled[i].victim_slot.to_string();
    EXPECT_EQ(single[i].payload, pooled[i].payload);
    EXPECT_EQ(single[i].triggered, pooled[i].triggered);
  }
}

}  // namespace
}  // namespace safelight
