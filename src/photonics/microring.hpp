// Microring resonator (MR) device model.
//
// The MR is the workhorse of the non-coherent ONN accelerator: weights and
// activations are imprinted by detuning an MR relative to its carrier
// wavelength so the through-port transmission equals the desired magnitude
// (paper Fig. 1(a)). The model implements:
//   * Eq. 1 resonance:       lambda_MR = 2*pi*R*n_eff / m
//   * Lorentzian through-port transmission with extinction floor T_min
//   * closed-form weight -> detuning inversion
//   * Eq. 2 thermo-optic resonance shift
#pragma once

#include <cstddef>

#include "photonics/constants.hpp"

namespace safelight::phot {

/// Static design parameters of one MR.
struct MrGeometry {
  double radius_um = kDefaultRadiusUm;
  double n_eff = kEffectiveIndex;
  double n_g = kGroupIndex;
  double q_factor = kDefaultQ;
  double t_min = kDefaultTmin;

  /// Validates ranges; throws std::invalid_argument.
  void validate() const;
};

class Microring {
 public:
  /// Builds an MR whose resonance order m is chosen so the Eq. 1 resonance
  /// lands nearest to target_nm; the small residual offset is absorbed into
  /// the fabrication-trim bias (real devices are trimmed the same way).
  Microring(const MrGeometry& geometry, double target_nm);

  const MrGeometry& geometry() const { return geometry_; }

  /// Eq. 1 resonance for the chosen order, before trim/tuning [nm].
  double natural_resonance_nm() const { return natural_resonance_nm_; }

  /// Resonance order m selected at construction.
  std::size_t resonance_order() const { return order_; }

  /// Current effective resonance including trim, imprint detuning and
  /// thermal shift [nm].
  double resonance_nm() const;

  /// Free spectral range lambda^2 / (n_g * 2*pi*R) [nm].
  double fsr_nm() const;

  /// Lorentzian full width at half maximum: lambda / Q [nm].
  double fwhm_nm() const;

  /// Through-port transmission in [t_min, 1] at the given wavelength.
  double transmission(double wavelength_nm) const;

  /// Sets the imprint detuning directly [nm] (signal modulation circuit).
  void set_detuning_nm(double detuning_nm);
  double detuning_nm() const { return detuning_nm_; }

  /// Applies a temperature delta; resonance shifts per Eq. 2.
  void set_temperature_delta(double delta_kelvin);

  /// Eq. 2 shift for a given delta-T [nm].
  double thermal_shift_nm(double delta_kelvin) const;

  /// Imprints a weight magnitude in [t_min, 1]: solves the Lorentzian for
  /// the detuning that makes transmission(carrier) == magnitude.
  /// Throws std::invalid_argument outside the representable range.
  void imprint_weight(double magnitude);

  /// Closed-form detuning required for a target transmission [nm].
  static double detuning_for_transmission(double target, double fwhm_nm,
                                          double t_min);

 private:
  MrGeometry geometry_;
  double carrier_nm_;             // wavelength this MR is assigned to
  std::size_t order_;             // resonance order m
  double natural_resonance_nm_;   // Eq. 1 output
  double trim_nm_;                // fabrication trim to hit the carrier
  double detuning_nm_ = 0.0;      // weight imprint / actuation offset
  double delta_kelvin_ = 0.0;     // thermal state
};

}  // namespace safelight::phot
