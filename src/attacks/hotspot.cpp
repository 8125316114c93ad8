#include "attacks/hotspot.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace safelight::attack {

namespace {

/// Samples victim banks in one block until `target_mrs` MRs are covered.
std::vector<std::size_t> sample_banks(const accel::BlockDims& dims,
                                      std::size_t target_mrs, Rng& rng) {
  if (target_mrs == 0) return {};
  const std::size_t bank_size = dims.mrs_per_bank;
  const std::size_t want_banks = std::min(
      dims.bank_count(),
      (target_mrs + bank_size / 2) / bank_size);  // nearest whole bank
  return rng.sample_without_replacement(dims.bank_count(),
                                        std::max<std::size_t>(
                                            want_banks,
                                            target_mrs > 0 ? 1 : 0));
}

BlockThermalState solve_block(const accel::AcceleratorConfig& config,
                              accel::BlockKind kind,
                              const std::vector<std::size_t>& victim_banks,
                              const HotspotConfig& attack) {
  const accel::BlockDims& dims = config.block(kind);
  const thermal::BlockFloorplan floorplan(dims.units, dims.banks_per_unit);
  BlockThermalState state(floorplan.make_grid());
  state.block = kind;
  state.banks_per_unit = dims.banks_per_unit;

  for (std::size_t flat : victim_banks) {
    const accel::BankAddress addr =
        accel::bank_from_flat(dims, kind, flat);
    const auto [row, col] = floorplan.bank_cell(addr.unit, addr.bank);
    state.grid.add_power_mw(row, col, attack.heater_overdrive_mw);
  }
  const thermal::SolveResult result =
      thermal::solve_steady_state(state.grid, attack.solver);
  SAFELIGHT_ASSERT(result.converged,
                   "plan_hotspot_attack: thermal solver did not converge");

  state.bank_delta_t.assign(dims.bank_count(), 0.0);
  for (std::size_t flat = 0; flat < dims.bank_count(); ++flat) {
    const accel::BankAddress addr =
        accel::bank_from_flat(dims, kind, flat);
    const auto [row, col] = floorplan.bank_cell(addr.unit, addr.bank);
    state.bank_delta_t[flat] = state.grid.delta_t(row, col);
  }
  return state;
}

}  // namespace

double HotspotPlan::effective_delta_t(const accel::BankAddress& bank,
                                      double compensation_k) const {
  const BlockThermalState* state = state_for(bank.block);
  if (state == nullptr) return 0.0;
  const std::size_t flat = bank.unit * state->banks_per_unit + bank.bank;
  if (flat >= state->bank_delta_t.size()) return 0.0;
  const double raw = state->bank_delta_t[flat];
  // The per-MR tuning loop absorbs minor swings (paper §III.B.2); only the
  // excess shifts the resonance.
  return std::max(0.0, raw - compensation_k);
}

const BlockThermalState* HotspotPlan::state_for(
    accel::BlockKind block) const {
  for (const auto& state : block_states) {
    if (state.block == block) return &state;
  }
  return nullptr;
}

HotspotPlan plan_hotspot_attack(const accel::AcceleratorConfig& config,
                                const AttackScenario& scenario,
                                const HotspotConfig& attack) {
  static metrics::Counter& plans = metrics::counter("attack.hotspot_plans");
  plans.add();
  scenario.validate();
  require(scenario.vector == AttackVector::kHotspot,
          "plan_hotspot_attack: scenario is not a hotspot attack");
  require(attack.heater_overdrive_mw > 0.0,
          "HotspotConfig: overdrive power must be positive");
  require(attack.tuning_compensation_k >= 0.0,
          "HotspotConfig: compensation must be >= 0");

  Rng rng(seed_combine(scenario.seed, 0x407, 0xBEEF));

  const std::size_t conv_slots = config.conv.slot_count();
  const std::size_t fc_slots = config.fc.slot_count();

  std::vector<std::size_t> conv_victims;
  std::vector<std::size_t> fc_victims;
  switch (scenario.target) {
    case AttackTarget::kConvBlock:
      conv_victims = sample_banks(
          config.conv,
          static_cast<std::size_t>(std::llround(
              scenario.fraction * static_cast<double>(conv_slots))),
          rng);
      break;
    case AttackTarget::kFcBlock:
      fc_victims = sample_banks(
          config.fc,
          static_cast<std::size_t>(std::llround(
              scenario.fraction * static_cast<double>(fc_slots))),
          rng);
      break;
    case AttackTarget::kBothBlocks:
      // A uniform draw over the union of MRs lands `fraction` of each
      // block's slots in expectation; sample each block at that rate.
      conv_victims = sample_banks(
          config.conv,
          static_cast<std::size_t>(std::llround(
              scenario.fraction * static_cast<double>(conv_slots))),
          rng);
      fc_victims = sample_banks(
          config.fc,
          static_cast<std::size_t>(std::llround(
              scenario.fraction * static_cast<double>(fc_slots))),
          rng);
      break;
  }

  HotspotPlan plan;
  auto add_trojans = [&plan](const accel::BlockDims& dims,
                             accel::BlockKind kind,
                             const std::vector<std::size_t>& victims) {
    for (std::size_t flat : victims) {
      HardwareTrojan trojan;
      trojan.payload = PayloadKind::kHeaterOverdrive;
      trojan.victim_bank = accel::bank_from_flat(dims, kind, flat);
      trojan.victim_slot = accel::SlotAddress{
          kind, trojan.victim_bank.unit, trojan.victim_bank.bank, 0};
      plan.trojans.push_back(trojan);
    }
  };
  add_trojans(config.conv, accel::BlockKind::kConv, conv_victims);
  add_trojans(config.fc, accel::BlockKind::kFc, fc_victims);
  plan.trojans =
      apply_trigger_model(std::move(plan.trojans), attack.trigger, rng);

  // Re-collect triggered victims per block for the thermal solve.
  conv_victims.clear();
  fc_victims.clear();
  for (const auto& trojan : plan.trojans) {
    const accel::BlockDims& dims = config.block(trojan.victim_bank.block);
    const std::size_t flat = accel::bank_flat_index(dims, trojan.victim_bank);
    if (trojan.victim_bank.block == accel::BlockKind::kConv) {
      conv_victims.push_back(flat);
    } else {
      fc_victims.push_back(flat);
    }
  }

  if (!conv_victims.empty()) {
    plan.block_states.push_back(
        solve_block(config, accel::BlockKind::kConv, conv_victims, attack));
  }
  if (!fc_victims.empty()) {
    plan.block_states.push_back(
        solve_block(config, accel::BlockKind::kFc, fc_victims, attack));
  }
  return plan;
}

}  // namespace safelight::attack
