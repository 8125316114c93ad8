// Applying attack plans to a mapped model (the fast experiment path).
//
// The paper's simulator assesses attacks "by modifying the models'
// parameters based on their mapping to the ONN accelerator" (§IV). This
// module does exactly that, with every corrupted value derived from the
// photonic device model:
//   * actuation victims: the mapped weight snaps to the parked ring's
//     decoded magnitude (≈ stuck-at-max), preserving its electronic sign;
//   * hotspot victims: every thermally shifted bank (victims + neighbors)
//     is pushed through the MrBank transmission model — rings modulate
//     their neighbors' channels and whole weight clusters corrupt at once.
// A weight served by an attacked MR corrupts in *every* mapping pass.
#pragma once

#include "accel/mapping.hpp"
#include "attacks/actuation.hpp"
#include "attacks/hotspot.hpp"
#include "attacks/scenario.hpp"

namespace safelight::attack {

/// Lightweight hardware countermeasure (the paper's §VII "ongoing work"):
/// one thermal-sentinel monitor per VDP unit detects abnormal temperature
/// rises; banks whose rise exceeds the detection threshold are quarantined
/// and their dot products are re-issued on spare banks (modeled as the
/// corruption simply not landing), limited by a spare-capacity budget. The
/// hottest banks are quarantined first (greedy triage).
struct QuarantineConfig {
  bool enabled = false;
  double detect_threshold_k = 8.0;   // sentinel detection threshold
  double spare_bank_fraction = 0.05; // spare capacity per block

  void validate() const;
};

struct CorruptionConfig {
  ActuationConfig actuation{};
  HotspotConfig hotspot{};
  QuarantineConfig quarantine{};
  /// Banks whose Eq. 2 shift is below this fraction of the ring FWHM are
  /// treated as thermally unaffected (transmission change is negligible).
  double shift_significance_fwhm = 0.05;
};

struct CorruptionStats {
  std::size_t trojan_count = 0;
  std::size_t attacked_mrs = 0;       // MRs under direct HT control
  std::size_t attacked_banks = 0;     // hotspot victim banks
  std::size_t thermally_hit_banks = 0;  // victims + heated neighbors
  std::size_t quarantined_banks = 0;  // rescued by the hardware mitigation
  std::size_t corrupted_weights = 0;  // weight scalars actually changed
  /// The solved thermal field of every block the attack heated — the die
  /// state on-chip sensors read (defense::DeploymentView::thermal). Empty
  /// for actuation and no-op scenarios: every sensor at ambient.
  std::vector<BlockThermalState> thermal;
};

/// Applies `scenario` to `model` (in place) through its mapping.
/// Deterministic in scenario.seed. The mapping's scales must reflect the
/// current (conditioned) weights — construct the mapping after
/// OnnExecutor::condition_weights, or call mapping.refresh_scales().
CorruptionStats apply_attack(accel::WeightStationaryMapping& mapping,
                             const AttackScenario& scenario,
                             const CorruptionConfig& config = {});

/// Short fingerprint over every field of `config` (including the thermal
/// solver knobs). Result caches key their files on it so sweeps with
/// ablated physics never share entries with the default configuration.
std::string config_fingerprint(const CorruptionConfig& config);

}  // namespace safelight::attack
