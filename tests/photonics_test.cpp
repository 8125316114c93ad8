// Tests for the photonic device models: Eq. 1 / Eq. 2, Lorentzian
// transmission, weight imprint inversion, WDM grids, banks, converters.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "photonics/constants.hpp"
#include "photonics/converters.hpp"
#include "photonics/microring.hpp"
#include "photonics/mr_bank.hpp"
#include "photonics/wdm.hpp"

namespace safelight::phot {
namespace {

MrGeometry default_geometry() { return MrGeometry{}; }

// ---------------------------------------------------------------- microring

TEST(Microring, Eq1ResonanceNearTarget) {
  const Microring ring(default_geometry(), 1550.0);
  // Eq. 1: lambda = 2*pi*R*n_eff/m with m chosen nearest the target; the
  // natural resonance must be within half an FSR of 1550 nm.
  EXPECT_NEAR(ring.natural_resonance_nm(), 1550.0, ring.fsr_nm() / 2 + 1e-9);
  // Eq. 1 identity holds exactly for the selected order.
  const double circumference_nm = 2.0 * M_PI * 5.0 * 1000.0;
  EXPECT_NEAR(ring.natural_resonance_nm(),
              circumference_nm * kEffectiveIndex /
                  static_cast<double>(ring.resonance_order()),
              1e-9);
  // Trim aligns the working resonance exactly to the carrier.
  EXPECT_NEAR(ring.resonance_nm(), 1550.0, 1e-9);
}

TEST(Microring, FsrMatchesFormula) {
  const Microring ring(default_geometry(), 1550.0);
  const double expected =
      1550.0 * 1550.0 / (kGroupIndex * 2.0 * M_PI * 5000.0);
  EXPECT_NEAR(ring.fsr_nm(), expected, 1e-9);
  EXPECT_NEAR(ring.fsr_nm(), 18.2, 0.3);  // ~18 nm for R = 5 um
}

TEST(Microring, LorentzianShape) {
  const Microring ring(default_geometry(), 1550.0);
  // On resonance: extinction floor.
  EXPECT_NEAR(ring.transmission(1550.0), default_geometry().t_min, 1e-9);
  // At half width: halfway point of the notch.
  const double half = ring.fwhm_nm() / 2.0;
  EXPECT_NEAR(ring.transmission(1550.0 + half),
              1.0 - (1.0 - default_geometry().t_min) / 2.0, 1e-9);
  // Far off resonance: ~1.
  EXPECT_GT(ring.transmission(1550.0 + 20 * half), 0.99);
  // Symmetry.
  EXPECT_NEAR(ring.transmission(1550.0 + 0.1),
              ring.transmission(1550.0 - 0.1), 1e-12);
}

TEST(Microring, TransmissionBounded) {
  const Microring ring(default_geometry(), 1550.0);
  for (double d = -5.0; d <= 5.0; d += 0.01) {
    const double t = ring.transmission(1550.0 + d);
    EXPECT_GE(t, default_geometry().t_min - 1e-12);
    EXPECT_LE(t, 1.0);
  }
}

TEST(Microring, WeightImprintInversionExact) {
  Microring ring(default_geometry(), 1550.0);
  for (double target : {0.05, 0.3, 0.5, 0.8, 0.95}) {
    ring.imprint_weight(target);
    EXPECT_NEAR(ring.transmission(1550.0), target, 1e-9) << target;
  }
}

TEST(Microring, ImprintRejectsOutOfRange) {
  Microring ring(default_geometry(), 1550.0);
  EXPECT_THROW(ring.imprint_weight(1.0), std::invalid_argument);   // needs inf
  EXPECT_THROW(ring.imprint_weight(0.001), std::invalid_argument); // below floor
}

TEST(Microring, Eq2ThermalShift) {
  const Microring ring(default_geometry(), 1550.0);
  // Eq. 2 with Gamma=0.8, dn/dT=1.86e-4, lambda=1550, n_g=4.2.
  const double expected_per_k = 0.8 * 1.86e-4 * 1550.0 / 4.2;
  EXPECT_NEAR(ring.thermal_shift_nm(1.0), expected_per_k, 1e-9);
  EXPECT_NEAR(ring.thermal_shift_nm(10.0), 10.0 * expected_per_k, 1e-9);
  EXPECT_NEAR(expected_per_k, 0.0549, 5e-4);  // ~0.055 nm/K
}

TEST(Microring, TemperatureShiftsResonance) {
  Microring ring(default_geometry(), 1550.0);
  const double t0 = ring.transmission(1550.0);
  ring.set_temperature_delta(5.0);
  EXPECT_GT(ring.resonance_nm(), 1550.0);  // red shift
  EXPECT_GT(ring.transmission(1550.0), t0);
  ring.set_temperature_delta(0.0);
  EXPECT_NEAR(ring.transmission(1550.0), t0, 1e-12);
}

TEST(Microring, GeometryValidation) {
  MrGeometry g;
  g.radius_um = -1.0;
  EXPECT_THROW(Microring(g, 1550.0), std::invalid_argument);
  g = MrGeometry{};
  g.q_factor = 10.0;
  EXPECT_THROW(Microring(g, 1550.0), std::invalid_argument);
  EXPECT_THROW(Microring(MrGeometry{}, 500.0), std::invalid_argument);
}

TEST(Microring, DetuningForTransmissionClosedForm) {
  const double fwhm = 0.1, t_min = 0.02;
  // At the half-power point the detuning equals FWHM/2.
  const double half_power = 1.0 - (1.0 - t_min) / 2.0;
  EXPECT_NEAR(Microring::detuning_for_transmission(half_power, fwhm, t_min),
              fwhm / 2.0, 1e-12);
  // Monotone in the target.
  EXPECT_LT(Microring::detuning_for_transmission(0.3, fwhm, t_min),
            Microring::detuning_for_transmission(0.9, fwhm, t_min));
  EXPECT_THROW(Microring::detuning_for_transmission(1.0, fwhm, t_min),
               std::invalid_argument);
}

// ---------------------------------------------------------------- wdm

TEST(Wdm, UniformSpacingInsideFsr) {
  const WdmGrid grid(20, 1550.0, 18.2);
  EXPECT_EQ(grid.channel_count(), 20u);
  EXPECT_NEAR(grid.spacing_nm(), 18.2 / 20.0, 1e-12);
  for (std::size_t c = 1; c < 20; ++c) {
    EXPECT_NEAR(grid.wavelength(c) - grid.wavelength(c - 1),
                grid.spacing_nm(), 1e-9);
  }
  // Centered on the carrier.
  EXPECT_NEAR((grid.wavelength(0) + grid.wavelength(19)) / 2.0, 1550.0,
              1e-9);
}

TEST(Wdm, NearestChannelSnapsAndRejects) {
  const WdmGrid grid(4, 1550.0, 4.0);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(grid.nearest_channel(grid.wavelength(c)), static_cast<int>(c));
    EXPECT_EQ(grid.nearest_channel(grid.wavelength(c) + 0.3), static_cast<int>(c));
  }
  // One spacing beyond the last channel -> unsupported (paper Fig. 5).
  EXPECT_EQ(grid.nearest_channel(grid.wavelength(3) + 1.0), -1);
  EXPECT_EQ(grid.nearest_channel(grid.wavelength(0) - 1.0), -1);
}

TEST(Wdm, SingleChannelGrid) {
  const WdmGrid grid(1, 1550.0, 18.0);
  EXPECT_NEAR(grid.wavelength(0), 1550.0, 1e-9);
  EXPECT_THROW(grid.wavelength(1), std::out_of_range);
}

TEST(Wdm, InvalidConfigThrows) {
  EXPECT_THROW(WdmGrid(0, 1550.0, 18.0), std::invalid_argument);
  EXPECT_THROW(WdmGrid(4, 1550.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- encoding

TEST(WeightEncoding, RoundTrip) {
  const WeightEncoding enc;
  for (double w : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(enc.to_magnitude(enc.to_transmission(w)), w, 1e-12);
  }
  EXPECT_THROW(enc.to_transmission(1.5), std::invalid_argument);
}

TEST(WeightEncoding, OffResonanceDecodesAboveMax) {
  const WeightEncoding enc;
  EXPECT_GT(enc.to_magnitude(1.0), 1.0);  // stuck-at-max overdrive
}

// ---------------------------------------------------------------- bank

struct BankSize {
  std::size_t channels;
  double q;
};

class MrBankTest : public ::testing::TestWithParam<BankSize> {
 protected:
  MrBank make_bank() const {
    MrGeometry g;
    g.q_factor = GetParam().q;
    const Microring reference(g, 1550.0);
    const WdmGrid grid(GetParam().channels, 1550.0, reference.fsr_nm());
    return MrBank(g, grid);
  }
};

TEST_P(MrBankTest, EffectiveWeightsTrackNominal) {
  MrBank bank = make_bank();
  Rng rng(31);
  std::vector<double> weights(bank.size());
  for (auto& w : weights) w = rng.uniform(-0.9, 0.9);
  bank.set_weights(weights);
  const auto effective = bank.effective_weights();
  for (std::size_t c = 0; c < bank.size(); ++c) {
    // Inter-channel crosstalk bounds the error to a few percent.
    EXPECT_NEAR(effective[c], weights[c], 0.05) << "channel " << c;
  }
}

TEST_P(MrBankTest, DotProductMatchesIdeal) {
  MrBank bank = make_bank();
  Rng rng(37);
  std::vector<double> weights(bank.size()), activations(bank.size());
  double ideal = 0.0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    weights[i] = rng.uniform(-0.9, 0.9);
    activations[i] = rng.uniform(0.0, 1.0);
    ideal += weights[i] * activations[i];
  }
  bank.set_weights(weights);
  EXPECT_NEAR(bank.dot_product(activations), ideal,
              0.03 * static_cast<double>(bank.size()));
}

TEST_P(MrBankTest, ActuationParkSticksNearMax) {
  MrBank bank = make_bank();
  std::vector<double> weights(bank.size(), 0.2);
  weights[0] = -0.2;
  bank.set_weights(weights);
  bank.park_off_resonance(0);
  const auto effective = bank.effective_weights();
  // Parked ring's channel decodes near max magnitude, sign preserved.
  EXPECT_LT(effective[0], -0.85);
  // Other channels barely affected.
  for (std::size_t c = 1; c < bank.size(); ++c) {
    EXPECT_NEAR(effective[c], 0.2, 0.08);
  }
}

TEST_P(MrBankTest, UniformShiftMovesWeightsToNeighbors) {
  MrBank bank = make_bank();
  Rng rng(41);
  std::vector<double> weights(bank.size());
  for (auto& w : weights) w = rng.uniform(0.1, 0.9);
  bank.set_weights(weights);

  // Shift every ring by exactly +1 channel spacing (paper Fig. 5). Eq. 2
  // scales with each ring's own carrier wavelength, so the delta-T needed
  // for a one-spacing shift differs slightly per ring; use the exact
  // per-ring value so the test isolates the neighbor-shift semantics.
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const double per_k = bank.ring(i).thermal_shift_nm(1.0);
    bank.set_temperature_delta(i, bank.grid().spacing_nm() / per_k);
  }
  const auto effective = bank.effective_weights();
  // Channel c now carries ring c-1's weight; channel 0 is unmodulated.
  EXPECT_GT(effective[0], 0.95);
  for (std::size_t c = 1; c < bank.size(); ++c) {
    EXPECT_NEAR(std::abs(effective[c]), weights[c - 1], 0.08)
        << "channel " << c;
  }
}

TEST_P(MrBankTest, ResetAttacksRestoresNominal) {
  MrBank bank = make_bank();
  std::vector<double> weights(bank.size(), 0.5);
  bank.set_weights(weights);
  const auto before = bank.effective_weights();
  bank.park_off_resonance(0);
  bank.set_temperature_delta(1 % bank.size(), 30.0);
  bank.reset_attacks();
  const auto after = bank.effective_weights();
  for (std::size_t c = 0; c < bank.size(); ++c) {
    EXPECT_NEAR(after[c], before[c], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MrBankTest,
    ::testing::Values(BankSize{3, 20000.0}, BankSize{20, 20000.0},
                      BankSize{150, 150000.0}));

TEST(MrBank, RejectsBadInputs) {
  MrGeometry g;
  const Microring reference(g, 1550.0);
  const WdmGrid grid(4, 1550.0, reference.fsr_nm());
  MrBank bank(g, grid);
  EXPECT_THROW(bank.set_weights({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(bank.set_weights({0.1, 0.2, 0.3, 1.5}),
               std::invalid_argument);
  EXPECT_THROW(bank.park_off_resonance(4), std::invalid_argument);
  EXPECT_THROW(bank.dot_product({1.0}), std::invalid_argument);
  EXPECT_THROW(bank.ring(9), std::invalid_argument);
}

TEST(MrBank, EncodingFloorMustCoverDevice) {
  MrGeometry g;
  g.t_min = 0.1;
  const Microring reference(g, 1550.0);
  const WdmGrid grid(4, 1550.0, reference.fsr_nm());
  WeightEncoding enc;
  enc.t_min = 0.02;  // below the device's extinction floor
  EXPECT_THROW(MrBank(g, grid, enc), std::invalid_argument);
}

// ---------------------------------------------------------------- converters

TEST(Quantizer, SnapAndClamp) {
  const Quantizer q(QuantizerConfig{2, 0.0, 3.0});  // 4 levels: 0,1,2,3
  EXPECT_DOUBLE_EQ(q.quantize(1.4), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(1.6), 2.0);
  EXPECT_DOUBLE_EQ(q.quantize(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(q.quantize(99.0), 3.0);
  EXPECT_DOUBLE_EQ(q.max_error(), 0.5);
}

TEST(Quantizer, HighResolutionNearlyTransparent) {
  const Quantizer q(QuantizerConfig{16, -1.0, 1.0});
  for (double v : {-0.73, -0.1, 0.0, 0.42, 0.99}) {
    EXPECT_NEAR(q.quantize(v), v, q.max_error() + 1e-12);
  }
}

TEST(Quantizer, IdempotentOnGridPoints) {
  const Quantizer q(QuantizerConfig{4, -1.0, 1.0});
  for (double v : {-1.0, -0.5, 0.0, 0.25, 1.0}) {
    const double once = q.quantize(v);
    EXPECT_DOUBLE_EQ(q.quantize(once), once);
  }
}

TEST(Quantizer, ConfigValidation) {
  EXPECT_THROW(Quantizer(QuantizerConfig{0, -1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Quantizer(QuantizerConfig{8, 1.0, -1.0}),
               std::invalid_argument);
  EXPECT_EQ((QuantizerConfig{8, -1.0, 1.0}).levels(), 256u);
}

}  // namespace
}  // namespace safelight::phot
