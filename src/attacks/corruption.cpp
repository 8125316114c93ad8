#include "attacks/corruption.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "photonics/constants.hpp"

namespace safelight::attack {

void QuarantineConfig::validate() const {
  require(detect_threshold_k >= 0.0,
          "QuarantineConfig: detection threshold must be >= 0");
  require(spare_bank_fraction >= 0.0 && spare_bank_fraction <= 1.0,
          "QuarantineConfig: spare fraction must be in [0,1]");
}

namespace {

constexpr float kChangeEpsilon = 1e-9f;

CorruptionStats apply_actuation(accel::WeightStationaryMapping& mapping,
                                const AttackScenario& scenario,
                                const CorruptionConfig& config) {
  const accel::AcceleratorConfig& accel_config = mapping.config();
  const std::vector<HardwareTrojan> trojans =
      plan_actuation_attack(accel_config, scenario, config.actuation);

  CorruptionStats stats;
  stats.trojan_count = trojans.size();
  stats.attacked_mrs = trojans.size();

  // Stuck magnitude per block (CONV / FC rings have different linewidths).
  const double stuck_conv = stuck_weight_magnitude(
      accel_config, accel::BlockKind::kConv,
      config.actuation.park_spacing_fraction);
  const double stuck_fc = stuck_weight_magnitude(
      accel_config, accel::BlockKind::kFc,
      config.actuation.park_spacing_fraction);

  for (const HardwareTrojan& trojan : trojans) {
    const double stuck = trojan.victim_slot.block == accel::BlockKind::kConv
                             ? stuck_conv
                             : stuck_fc;
    for (const accel::WeightRef& ref :
         mapping.weights_on_slot(trojan.victim_slot)) {
      const float scale = mapping.scale_of(ref.param);
      const float old_value = ref.read();
      const float sign = old_value < 0.0f ? -1.0f : 1.0f;
      const float corrupted = sign * static_cast<float>(stuck) * scale;
      if (std::abs(corrupted - old_value) > kChangeEpsilon) {
        ref.write(corrupted);
        ++stats.corrupted_weights;
      }
    }
  }
  return stats;
}

CorruptionStats apply_hotspot(accel::WeightStationaryMapping& mapping,
                              const AttackScenario& scenario,
                              const CorruptionConfig& config) {
  const accel::AcceleratorConfig& accel_config = mapping.config();
  HotspotPlan plan =
      plan_hotspot_attack(accel_config, scenario, config.hotspot);

  CorruptionStats stats;
  stats.trojan_count = plan.trojans.size();
  stats.attacked_banks = plan.trojans.size();

  for (const BlockThermalState& state : plan.block_states) {
    const accel::BlockKind kind = state.block;
    const accel::BlockDims& dims = accel_config.block(kind);
    const phot::MrGeometry& geometry = accel_config.geometry(kind);
    const phot::WdmGrid grid = accel_config.bank_grid(kind);

    // Minimum delta-T that produces a significant resonance shift.
    const phot::Microring reference(geometry, accel_config.center_wavelength_nm);
    const double shift_per_k = reference.thermal_shift_nm(1.0);
    const double min_delta_t = config.shift_significance_fwhm *
                               reference.fwhm_nm() / shift_per_k;

    // Hardware mitigation: thermal sentinels quarantine the hottest banks
    // (re-issued on spare capacity), limited by the spare budget. Only
    // banks that actually serve weights consume budget — the remap
    // controller knows the mapping occupancy.
    const std::size_t mapped_count = mapping.weight_count(kind);
    auto bank_carries_weights = [&](std::size_t flat) {
      return mapped_count >= dims.slot_count() ||
             flat * dims.mrs_per_bank < mapped_count;
    };
    std::unordered_set<std::size_t> quarantined;
    if (config.quarantine.enabled) {
      config.quarantine.validate();
      std::vector<std::pair<double, std::size_t>> detected;
      for (std::size_t flat = 0; flat < dims.bank_count(); ++flat) {
        if (bank_carries_weights(flat) &&
            state.bank_delta_t[flat] >=
                config.quarantine.detect_threshold_k) {
          detected.emplace_back(state.bank_delta_t[flat], flat);
        }
      }
      std::sort(detected.rbegin(), detected.rend());
      const auto budget = static_cast<std::size_t>(
          std::llround(config.quarantine.spare_bank_fraction *
                       static_cast<double>(dims.bank_count())));
      for (std::size_t i = 0; i < std::min(budget, detected.size()); ++i) {
        quarantined.insert(detected[i].second);
      }
      stats.quarantined_banks += quarantined.size();
    }

    for (std::size_t flat = 0; flat < dims.bank_count(); ++flat) {
      if (quarantined.count(flat) != 0) continue;
      const accel::BankAddress addr = accel::bank_from_flat(dims, kind, flat);
      const double delta_t = plan.effective_delta_t(
          addr, config.hotspot.tuning_compensation_k);
      if (delta_t < min_delta_t) continue;

      const auto pass_groups = mapping.bank_weights(addr);
      if (pass_groups.empty()) continue;  // no weights live on this bank
      ++stats.thermally_hit_banks;
      stats.attacked_mrs += dims.mrs_per_bank;

      phot::MrBank bank(geometry, grid, accel_config.encoding);
      for (const auto& group : pass_groups) {
        // Normalized signed weights for this pass (missing slots -> 0).
        std::vector<double> normalized(dims.mrs_per_bank, 0.0);
        for (std::size_t mr = 0; mr < group.size(); ++mr) {
          if (group[mr].param == nullptr) continue;
          const float scale = mapping.scale_of(group[mr].param);
          normalized[mr] = std::clamp(
              static_cast<double>(group[mr].read()) / scale, -1.0, 1.0);
        }
        bank.set_weights(normalized);
        for (std::size_t mr = 0; mr < dims.mrs_per_bank; ++mr) {
          bank.set_temperature_delta(mr, delta_t);
        }
        const std::vector<double> effective = bank.effective_weights();
        for (std::size_t mr = 0; mr < group.size(); ++mr) {
          if (group[mr].param == nullptr) continue;
          const float scale = mapping.scale_of(group[mr].param);
          const float corrupted =
              static_cast<float>(effective[mr]) * scale;
          if (std::abs(corrupted - group[mr].read()) > kChangeEpsilon) {
            group[mr].write(corrupted);
            ++stats.corrupted_weights;
          }
        }
      }
    }
  }
  stats.thermal = std::move(plan.block_states);
  return stats;
}

}  // namespace

CorruptionStats apply_attack(accel::WeightStationaryMapping& mapping,
                             const AttackScenario& scenario,
                             const CorruptionConfig& config) {
  scenario.validate();
  require(config.shift_significance_fwhm >= 0.0,
          "CorruptionConfig: significance threshold must be >= 0");
  if (scenario.fraction == 0.0) return {};  // explicit no-op
  switch (scenario.vector) {
    case AttackVector::kActuation:
      return apply_actuation(mapping, scenario, config);
    case AttackVector::kHotspot: break;
  }
  return apply_hotspot(mapping, scenario, config);
}

std::string config_fingerprint(const CorruptionConfig& config) {
  Fingerprint fp;
  fp.mix_double(config.actuation.park_spacing_fraction)
      .mix_double(config.actuation.trigger.trigger_probability)
      .mix_double(config.hotspot.heater_overdrive_mw)
      .mix_double(config.hotspot.tuning_compensation_k)
      .mix_double(config.hotspot.trigger.trigger_probability)
      .mix_double(config.hotspot.solver.g_lateral_w_per_k)
      .mix_double(config.hotspot.solver.g_sink_w_per_k)
      .mix_double(config.hotspot.solver.sor_omega)
      .mix_u64(config.hotspot.solver.max_iterations)
      .mix_double(config.hotspot.solver.tolerance_k * 1e6)  // sub-micro-K
      .mix_u64(config.quarantine.enabled ? 1 : 0)
      .mix_double(config.quarantine.detect_threshold_k)
      .mix_double(config.quarantine.spare_bank_fraction)
      .mix_double(config.shift_significance_fwhm);
  return fp.hex8();
}

}  // namespace safelight::attack
