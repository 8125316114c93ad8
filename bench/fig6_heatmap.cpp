// Fig. 6 reproduction: heatmap of the CONV MR bank arrays under hotspot
// attacks ("two MR banks have multiple compromised heaters").
//
// Prints the solved steady-state field as ASCII art, writes the full
// temperature matrix to CSV, and summarizes the Eq. 2 resonance shifts the
// field induces on victim and neighbor banks.

#include <algorithm>
#include <cstdio>

#include "attacks/hotspot.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "core/report.hpp"
#include "thermal/heatmap.hpp"

namespace sl = safelight;

int main() {
  sl::core::banner("Fig. 6: CONV-block hotspot heatmap");

  const sl::accel::AcceleratorConfig config =
      sl::accel::AcceleratorConfig::crosslight();
  sl::attack::AttackScenario scenario;
  scenario.vector = sl::attack::AttackVector::kHotspot;
  scenario.target = sl::attack::AttackTarget::kConvBlock;
  // Two victim banks out of 2000 (matching the paper's illustration).
  scenario.fraction = 2.0 * 20.0 / 40000.0;
  scenario.seed = 2025;

  sl::attack::HotspotConfig attack;
  const sl::attack::HotspotPlan plan =
      sl::attack::plan_hotspot_attack(config, scenario, attack);

  const auto* state = plan.state_for(sl::accel::BlockKind::kConv);
  if (state == nullptr) {
    std::printf("no thermal state produced\n");
    return 1;
  }
  std::printf("victim banks: %zu, heater overdrive %.0f mW each\n\n",
              plan.trojans.size(), attack.heater_overdrive_mw);
  std::printf("%s\n", sl::thermal::render_ascii_heatmap(state->grid).c_str());

  const std::string csv_path = sl::config::out_dir() + "/fig6_heatmap.csv";
  sl::thermal::write_heatmap_csv(state->grid, csv_path);

  // Eq. 2 consequences at bank granularity.
  const sl::phot::Microring ring(config.conv_mr, config.center_wavelength_nm);
  const double spacing =
      ring.fsr_nm() / static_cast<double>(config.conv.mrs_per_bank);
  std::vector<double> rises = state->bank_delta_t;
  std::sort(rises.rbegin(), rises.rend());

  sl::core::TextTable table(
      {"bank rank", "delta-T (K)", "Eq.2 shift (nm)", "channel spacings"});
  for (std::size_t rank : {0u, 1u, 2u, 5u, 10u, 50u}) {
    if (rank >= rises.size()) continue;
    const double dt = std::max(
        0.0, rises[rank] - sl::attack::HotspotConfig{}.tuning_compensation_k);
    const double shift = ring.thermal_shift_nm(dt);
    table.add_row({std::to_string(rank + 1), sl::fmt_double(rises[rank], 2),
                   sl::fmt_double(shift, 3),
                   sl::fmt_double(shift / spacing, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "peak rise %.1f K; >= 1 channel spacing of shift needs %.1f K\n"
      "heatmap CSV written to %s\n",
      state->grid.max_temperature_k() - state->grid.config().ambient_k,
      spacing / ring.thermal_shift_nm(1.0), csv_path.c_str());
  return 0;
}
