// Thermal hotspot heatmap demo (paper Fig. 6): two victim MR banks in the
// CONV block with overdriven heaters, solved to steady state and rendered.
//
// Usage: thermal_heatmap [overdrive_mw]

#include <cstdio>
#include <cstdlib>

#include "attacks/hotspot.hpp"
#include "photonics/microring.hpp"
#include "thermal/heatmap.hpp"

namespace sl = safelight;

int main(int argc, char** argv) {
  const double overdrive_mw = argc > 1 ? std::atof(argv[1]) : 45.0;

  const sl::accel::AcceleratorConfig config =
      sl::accel::AcceleratorConfig::crosslight();
  const sl::accel::BlockDims& dims = config.conv;
  const sl::thermal::BlockFloorplan floorplan(dims.units,
                                              dims.banks_per_unit);
  sl::thermal::ThermalGrid grid = floorplan.make_grid();

  // Two attacked banks, as in the paper's Fig. 6: one mid-die, one near the
  // corner, each with multiple compromised heaters.
  const auto [r1, c1] = floorplan.bank_cell(/*unit=*/44, /*bank=*/7);
  const auto [r2, c2] = floorplan.bank_cell(/*unit=*/12, /*bank=*/18);
  grid.add_power_mw(r1, c1, overdrive_mw);
  grid.add_power_mw(r2, c2, overdrive_mw);

  const sl::thermal::SolveResult result = sl::thermal::solve_steady_state(grid);
  std::printf(
      "CONV block (%zux%zu bank tiles), 2 hotspot attacks at %.0f mW\n"
      "solver: %zu iterations, converged=%d\n\n",
      grid.rows(), grid.cols(), overdrive_mw, result.iterations,
      result.converged ? 1 : 0);
  std::printf("%s\n", sl::thermal::render_ascii_heatmap(grid).c_str());

  const double peak_dt = grid.max_temperature_k() - grid.config().ambient_k;
  const sl::phot::Microring ring(config.conv_mr, config.center_wavelength_nm);
  const double shift = ring.thermal_shift_nm(peak_dt);
  std::printf(
      "peak rise: %.1f K -> Eq.2 resonance shift %.3f nm (%.1f channel "
      "spacings, FWHM %.3f nm)\n",
      peak_dt, shift, shift / (ring.fsr_nm() / dims.mrs_per_bank),
      ring.fwhm_nm());
  return 0;
}
