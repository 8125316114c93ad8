#include "support/reference_exec.hpp"

#include <algorithm>
#include <cmath>

#include "attacks/corruption.hpp"
#include "common/error.hpp"

namespace safelight::attack {

std::vector<double> reference_fc_forward(
    const accel::WeightStationaryMapping& mapping, nn::Linear& layer,
    const std::vector<double>& x, const AttackScenario& scenario,
    const CorruptionConfig& config) {
  const accel::AcceleratorConfig& accel_config = mapping.config();
  const accel::BlockDims& dims = accel_config.fc;
  const std::size_t in_features = layer.in_features();
  const std::size_t out_features = layer.out_features();
  const std::size_t weight_count = in_features * out_features;

  require(x.size() == in_features,
          "reference_fc_forward: activation length mismatch");
  require(mapping.weight_count(accel::BlockKind::kFc) == weight_count,
          "reference_fc_forward: mapping does not cover exactly this layer");
  require(mapping.passes(accel::BlockKind::kFc) == 1,
          "reference_fc_forward: layer must fit one FC pass");
  require(mapping.weight_count(accel::BlockKind::kConv) == 0,
          "reference_fc_forward: model must have no conv weights");

  const float scale = mapping.scale_of(&layer.weight());
  const phot::WdmGrid grid = accel_config.bank_grid(accel::BlockKind::kFc);
  const phot::MrGeometry& geometry = accel_config.fc_mr;
  const std::size_t mrs = dims.mrs_per_bank;
  const std::size_t used_banks = (weight_count + mrs - 1) / mrs;

  // Attack plans (device level).
  std::vector<std::vector<std::size_t>> parked(used_banks);
  if (scenario.vector == AttackVector::kActuation &&
      scenario.fraction > 0.0) {
    for (const HardwareTrojan& trojan :
         plan_actuation_attack(accel_config, scenario, config.actuation)) {
      if (trojan.victim_slot.block != accel::BlockKind::kFc) continue;
      const std::size_t bank_flat =
          accel::bank_flat_index(dims, accel::bank_of_slot(trojan.victim_slot));
      if (bank_flat < used_banks) {
        parked[bank_flat].push_back(trojan.victim_slot.mr);
      }
    }
  }
  std::vector<double> bank_delta_t(used_banks, 0.0);
  if (scenario.vector == AttackVector::kHotspot && scenario.fraction > 0.0) {
    const HotspotPlan plan =
        plan_hotspot_attack(accel_config, scenario, config.hotspot);
    const BlockThermalState* state = plan.state_for(accel::BlockKind::kFc);
    if (state != nullptr) {
      for (std::size_t b = 0; b < used_banks; ++b) {
        bank_delta_t[b] =
            std::max(0.0, state->bank_delta_t[b] -
                              config.hotspot.tuning_compensation_k);
      }
    }
  }

  // Per-bank device evaluation.
  std::vector<double> y(out_features, 0.0);
  const float* w = layer.weight().value.data();
  for (std::size_t b = 0; b < used_banks; ++b) {
    std::vector<double> normalized(mrs, 0.0);
    for (std::size_t j = 0; j < mrs; ++j) {
      const std::size_t flat = b * mrs + j;
      if (flat >= weight_count) break;
      normalized[j] =
          std::clamp(static_cast<double>(w[flat]) / scale, -1.0, 1.0);
    }
    phot::MrBank bank(geometry, grid, accel_config.encoding);
    bank.set_weights(normalized);
    for (std::size_t mr : parked[b]) {
      bank.park_off_resonance(
          mr, config.actuation.park_spacing_fraction * grid.spacing_nm());
    }
    if (bank_delta_t[b] > 0.0) {
      for (std::size_t j = 0; j < mrs; ++j) {
        bank.set_temperature_delta(j, bank_delta_t[b]);
      }
    }
    const std::vector<double> effective = bank.effective_weights();
    for (std::size_t j = 0; j < mrs; ++j) {
      const std::size_t flat = b * mrs + j;
      if (flat >= weight_count) break;
      const std::size_t out = flat / in_features;
      const std::size_t in = flat % in_features;
      y[out] += effective[j] * static_cast<double>(scale) * x[in];
    }
  }
  return y;
}

}  // namespace safelight::attack
