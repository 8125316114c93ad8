#include "attacks/campaign.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"

namespace safelight::attack {

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kOverlapping: return "overlapping";
    case PlacementPolicy::kDisjointBlocks: break;
  }
  return "disjoint";
}

void CompositeScenario::validate() const {
  require(!components.empty(),
          "CompositeScenario: need at least one component");
  bool conv_claimed = false;
  bool fc_claimed = false;
  for (const AttackScenario& component : components) {
    component.validate();
    require(component.fraction > 0.0,
            "CompositeScenario: zero-fraction component '" + component.id() +
                "' (drop it instead)");
    if (placement == PlacementPolicy::kDisjointBlocks) {
      const bool wants_conv = component.target != AttackTarget::kFcBlock;
      const bool wants_fc = component.target != AttackTarget::kConvBlock;
      require(!(wants_conv && conv_claimed) && !(wants_fc && fc_claimed),
              "CompositeScenario: disjoint placement violated — component '" +
                  component.id() + "' targets an already-claimed block");
      conv_claimed = conv_claimed || wants_conv;
      fc_claimed = fc_claimed || wants_fc;
    }
  }
}

std::vector<AttackScenario> CompositeScenario::canonical_components() const {
  std::vector<AttackScenario> sorted = components;
  std::sort(sorted.begin(), sorted.end(),
            [](const AttackScenario& a, const AttackScenario& b) {
              return a.id() < b.id();
            });
  return sorted;
}

std::string CompositeScenario::id() const {
  std::string joined;
  for (const AttackScenario& component : canonical_components()) {
    if (!joined.empty()) joined += '+';
    joined += component.id();
  }
  return "composite[" + joined + "]/" +
         (placement == PlacementPolicy::kOverlapping ? "ov" : "dj");
}

namespace {

/// Adds one component's solved block field to `merged`. The steady-state
/// heat equation is linear in its power sources, so summing the per-cell
/// temperature rises (and per-bank delta-Ts) of concurrent hotspot
/// components is the exact field a die under all of them shows.
void superpose(std::vector<BlockThermalState>& merged,
               BlockThermalState state) {
  BlockThermalState* existing = nullptr;
  for (BlockThermalState& m : merged) {
    if (m.block == state.block) existing = &m;
  }
  if (existing == nullptr) {
    merged.push_back(std::move(state));
    return;
  }
  SAFELIGHT_ASSERT(existing->bank_delta_t.size() == state.bank_delta_t.size() &&
                       existing->grid.rows() == state.grid.rows() &&
                       existing->grid.cols() == state.grid.cols(),
                   "apply_composite: component grids disagree on block dims");
  for (std::size_t i = 0; i < state.bank_delta_t.size(); ++i) {
    existing->bank_delta_t[i] += state.bank_delta_t[i];
  }
  for (std::size_t r = 0; r < state.grid.rows(); ++r) {
    for (std::size_t c = 0; c < state.grid.cols(); ++c) {
      existing->grid.set_temperature_k(
          r, c, existing->grid.temperature_k(r, c) + state.grid.delta_t(r, c));
      existing->grid.add_power_mw(r, c, state.grid.power_mw(r, c));
    }
  }
}

}  // namespace

CorruptionStats apply_composite(accel::WeightStationaryMapping& mapping,
                                const CompositeScenario& composite,
                                const CorruptionConfig& config) {
  composite.validate();
  CorruptionStats total;
  for (const AttackScenario& component : composite.canonical_components()) {
    CorruptionStats stats = apply_attack(mapping, component, config);
    total.trojan_count += stats.trojan_count;
    total.attacked_mrs += stats.attacked_mrs;
    total.attacked_banks += stats.attacked_banks;
    total.thermally_hit_banks += stats.thermally_hit_banks;
    total.quarantined_banks += stats.quarantined_banks;
    total.corrupted_weights += stats.corrupted_weights;
    for (BlockThermalState& state : stats.thermal) {
      superpose(total.thermal, std::move(state));
    }
  }
  return total;
}

CompositeScenario scaled(const CompositeScenario& composite, double factor) {
  require(factor >= 0.0, "scaled: factor must be >= 0");
  CompositeScenario out = composite;
  for (AttackScenario& component : out.components) {
    component.fraction = std::min(1.0, component.fraction * factor);
  }
  return out;
}

void CampaignSchedule::validate() const {
  require(!name.empty(), "CampaignSchedule: need a name");
  require(!phases.empty(), "CampaignSchedule: need at least one phase");
  for (const CampaignPhase& phase : phases) {
    require(!phase.name.empty(), "CampaignSchedule: phase without a name");
    require(phase.checks > 0,
            "CampaignSchedule: phase '" + phase.name + "' spans zero checks");
    if (phase.active()) phase.attack.validate();
  }
}

std::string CampaignSchedule::id() const {
  Fingerprint fp;
  for (const CampaignPhase& phase : phases) {
    fp.mix_bytes(phase.name.data(), phase.name.size());
    fp.mix_u64(phase.checks);
    fp.mix_u64(phase.attack.placement == PlacementPolicy::kOverlapping ? 0
                                                                       : 1);
    // Canonical order: reordered-but-equal composites fingerprint equally.
    for (const AttackScenario& c : phase.attack.canonical_components()) {
      const std::string cid = c.id();
      fp.mix_bytes(cid.data(), cid.size());
    }
  }
  return "campaign/" + name + "/" + fp.hex8();
}

std::size_t CampaignSchedule::total_checks() const {
  std::size_t total = 0;
  for (const CampaignPhase& phase : phases) total += phase.checks;
  return total;
}

std::size_t CampaignSchedule::active_phase_count() const {
  std::size_t active = 0;
  for (const CampaignPhase& phase : phases) {
    if (phase.active()) ++active;
  }
  return active;
}

std::size_t CampaignSchedule::first_active_phase() const {
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].active()) return i;
  }
  return phases.size();
}

CampaignSchedule ramp_campaign(const std::string& name,
                               const CompositeScenario& composite,
                               const std::vector<double>& scales,
                               std::size_t checks_per_phase) {
  require(!scales.empty(), "ramp_campaign: need at least one scale");
  CampaignSchedule schedule;
  schedule.name = name;
  schedule.phases.reserve(scales.size());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    CampaignPhase phase;
    phase.name = "ramp" + std::to_string(i + 1);
    phase.attack = scaled(composite, scales[i]);
    phase.checks = checks_per_phase;
    schedule.phases.push_back(std::move(phase));
  }
  schedule.validate();
  return schedule;
}

CampaignSchedule burst_campaign(const std::string& name,
                                const CompositeScenario& composite,
                                std::size_t lead_dormant,
                                std::size_t trail_dormant,
                                std::size_t burst_checks) {
  CampaignSchedule schedule;
  schedule.name = name;
  for (std::size_t i = 0; i < lead_dormant; ++i) {
    schedule.phases.push_back({"dormant" + std::to_string(i + 1), {}, 1});
  }
  CampaignPhase burst;
  burst.name = "burst";
  burst.attack = composite;
  burst.checks = burst_checks;
  schedule.phases.push_back(std::move(burst));
  for (std::size_t i = 0; i < trail_dormant; ++i) {
    schedule.phases.push_back(
        {"cooloff" + std::to_string(i + 1), {}, 1});
  }
  schedule.validate();
  return schedule;
}

std::vector<CampaignSchedule> standard_campaigns(std::uint64_t base_seed) {
  // The cross-block disjoint composite: full-strength actuation in CONV
  // stacked with a hotspot in FC — the "divide the accelerator" attacker.
  CompositeScenario cross_block;
  cross_block.placement = PlacementPolicy::kDisjointBlocks;
  cross_block.components.push_back(
      {AttackVector::kActuation, AttackTarget::kConvBlock, 0.10, base_seed});
  cross_block.components.push_back(
      {AttackVector::kHotspot, AttackTarget::kFcBlock, 0.10, base_seed + 1});

  // A single-vector whole-accelerator actuation composite for the evasive
  // ramp: starts at 1/50 of the burst intensity — typically inside every
  // calibrated envelope — and escalates.
  CompositeScenario actuation_all;
  actuation_all.components.push_back(
      {AttackVector::kActuation, AttackTarget::kBothBlocks, 0.10,
       base_seed + 2});

  std::vector<CampaignSchedule> campaigns;
  campaigns.push_back(ramp_campaign("evasive-ramp", actuation_all,
                                    {0.02, 0.1, 0.5, 1.0}));
  campaigns.push_back(
      burst_campaign("stealth-burst", cross_block, /*lead_dormant=*/2,
                     /*trail_dormant=*/1, /*burst_checks=*/2));
  campaigns.push_back(ramp_campaign("cross-block-ramp", cross_block,
                                    {0.1, 0.5, 1.0}));
  return campaigns;
}

}  // namespace safelight::attack
