// Physical constants and default silicon-photonics parameters.
//
// Values follow the literature the paper cites: thermo-optic coefficient and
// group index from [20]/[24], C-band operation at 1550 nm, microring radius
// ~5 um as in CrossLight [7]. Wavelengths are expressed in nanometers and
// temperatures in Kelvin throughout SafeLight.
#pragma once

namespace safelight::phot {

/// Group refractive index of the MR waveguide (paper Eq. 2, n_g).
inline constexpr double kGroupIndex = 4.2;

/// Modal confinement factor of the MR core (paper Eq. 2, Gamma_Si).
inline constexpr double kConfinementSi = 0.8;

/// Thermo-optic coefficient of silicon [1/K] (paper Eq. 2, dn_Si/dT).
inline constexpr double kThermoOpticSi = 1.86e-4;

/// Effective index of the SOI microring mode (used by Eq. 1).
inline constexpr double kEffectiveIndex = 2.36;

/// Default microring radius [um].
inline constexpr double kDefaultRadiusUm = 5.0;

/// Default loaded quality factor of a CONV-block weight MR (20 channels per
/// FSR need FWHM well below the ~0.9 nm channel spacing).
inline constexpr double kDefaultQ = 20'000.0;

/// High-Q MR used by the FC block, whose 150 channels per FSR imply a
/// ~0.12 nm spacing and hence a much narrower linewidth.
inline constexpr double kHighQ = 150'000.0;

/// On-resonance through-port transmission floor (extinction limit).
inline constexpr double kDefaultTmin = 0.02;

}  // namespace safelight::phot
