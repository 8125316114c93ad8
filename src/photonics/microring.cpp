#include "photonics/microring.hpp"

#include <cmath>

#include "common/error.hpp"

namespace safelight::phot {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

void MrGeometry::validate() const {
  require(radius_um > 0.0, "MrGeometry: radius must be positive");
  require(n_eff > 1.0 && n_eff < 5.0, "MrGeometry: n_eff out of SOI range");
  require(n_g >= n_eff, "MrGeometry: group index must be >= effective index");
  require(q_factor > 100.0, "MrGeometry: Q factor unreasonably low");
  require(t_min >= 0.0 && t_min < 0.5,
          "MrGeometry: extinction floor must be in [0, 0.5)");
}

Microring::Microring(const MrGeometry& geometry, double target_nm)
    : geometry_(geometry), carrier_nm_(target_nm) {
  geometry_.validate();
  require(target_nm > 1000.0 && target_nm < 2000.0,
          "Microring: target wavelength must be in the near-IR band");
  // Eq. 1: lambda = 2*pi*R*n_eff / m  ->  m = round(2*pi*R*n_eff / lambda).
  const double circumference_nm = 2.0 * kPi * geometry_.radius_um * 1000.0;
  const double m_real = circumference_nm * geometry_.n_eff / target_nm;
  order_ = static_cast<std::size_t>(std::llround(m_real));
  SAFELIGHT_ASSERT(order_ > 0, "Microring: resonance order underflow");
  natural_resonance_nm_ =
      circumference_nm * geometry_.n_eff / static_cast<double>(order_);
  // Fabrication trim aligns the device to its WDM carrier.
  trim_nm_ = carrier_nm_ - natural_resonance_nm_;
}

double Microring::resonance_nm() const {
  return natural_resonance_nm_ + trim_nm_ + detuning_nm_ +
         thermal_shift_nm(delta_kelvin_);
}

double Microring::fsr_nm() const {
  const double circumference_nm = 2.0 * kPi * geometry_.radius_um * 1000.0;
  return carrier_nm_ * carrier_nm_ / (geometry_.n_g * circumference_nm);
}

double Microring::fwhm_nm() const { return carrier_nm_ / geometry_.q_factor; }

double Microring::transmission(double wavelength_nm) const {
  const double half_width = 0.5 * fwhm_nm();
  const double x = (wavelength_nm - resonance_nm()) / half_width;
  const double notch = (1.0 - geometry_.t_min) / (1.0 + x * x);
  return 1.0 - notch;
}

void Microring::set_detuning_nm(double detuning_nm) {
  detuning_nm_ = detuning_nm;
}

void Microring::set_temperature_delta(double delta_kelvin) {
  delta_kelvin_ = delta_kelvin;
}

double Microring::thermal_shift_nm(double delta_kelvin) const {
  // Eq. 2: dLambda = Gamma_Si * (dn_Si/dT) * lambda / n_g * dT.
  return kConfinementSi * kThermoOpticSi * carrier_nm_ / geometry_.n_g *
         delta_kelvin;
}

double Microring::detuning_for_transmission(double target, double fwhm_nm,
                                            double t_min) {
  require(fwhm_nm > 0.0, "detuning_for_transmission: FWHM must be positive");
  require(target >= t_min && target < 1.0,
          "detuning_for_transmission: target transmission must be in "
          "[t_min, 1)");
  // Invert T = 1 - (1 - t_min) / (1 + x^2):
  //   x = sqrt((target - t_min) / (1 - target)).
  const double x = std::sqrt((target - t_min) / (1.0 - target));
  return 0.5 * fwhm_nm * x;
}

void Microring::imprint_weight(double magnitude) {
  set_detuning_nm(
      detuning_for_transmission(magnitude, fwhm_nm(), geometry_.t_min));
}

}  // namespace safelight::phot
