// Composite & adaptive attack campaigns (beyond the paper's §IV grid).
//
// The paper sweeps one attack vector at a time at a fixed intensity. A real
// adversary is under no such constraint: SecONN-style concurrent attacks
// combine mechanisms (actuation trojans in CONV *and* a hotspot in FC) and
// modulate them over time to slip under runtime monitors — start below a
// range monitor's calibrated envelope, stay dormant while the defender
// samples, then burst. This module describes both dimensions:
//   * CompositeScenario — several AttackScenarios applied to one deployment
//     in a single corruption pass, with per-component fractions and a
//     placement policy (independent overlapping placements vs. block-
//     disjoint components);
//   * CampaignSchedule — a timeline of phases (ramp-up, burst, dormant /
//     evasive intervals), each holding the composite active during it and
//     the number of detector checks it spans.
// core/campaign_eval.hpp sweeps schedules through the parallel pipeline and
// scores the defense suite's per-phase detection latency and evasion rate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/mapping.hpp"
#include "attacks/corruption.hpp"
#include "attacks/scenario.hpp"

namespace safelight::attack {

/// How a composite's components share the MR population.
///   kOverlapping     — components are placed independently; two components
///                      may victimize the same MRs (last-applied wins under
///                      the canonical application order).
///   kDisjointBlocks  — each accelerator block (CONV, FC) may be claimed by
///                      at most one component; validate() rejects composites
///                      whose components collide on a block. This is the
///                      "divide the accelerator" attacker: full intensity on
///                      disjoint surfaces, no wasted trojans.
enum class PlacementPolicy { kOverlapping, kDisjointBlocks };

/// Human-readable names ("overlapping" / "disjoint").
std::string to_string(PlacementPolicy policy);

/// Several attack scenarios stacked on one deployment. Corruption applies
/// every component in one pass (canonical component order, so evaluation is
/// invariant to the order components were listed in).
struct CompositeScenario {
  std::vector<AttackScenario> components;
  PlacementPolicy placement = PlacementPolicy::kOverlapping;

  /// Throws when there is no component, any component is invalid or has
  /// fraction == 0 (a zero-fraction component is always a mistake in a
  /// composite: it contributes nothing but splits the cache), or the
  /// placement policy is violated.
  void validate() const;

  /// Stable identifier used as a cache key, e.g.
  /// "composite[actuation/CONV/f0.05/s3+hotspot/FC/f0.1/s7]/ov".
  /// Invariant under component reordering (components are sorted by id).
  std::string id() const;

  /// Components sorted by id — the canonical application order.
  std::vector<AttackScenario> canonical_components() const;
};

/// Applies every component of `composite` to `mapping`'s model in one pass,
/// in canonical component order, and returns the aggregated corruption
/// statistics (field-wise sums over the components; the components'
/// thermal fields superposed per block). Deterministic in the component
/// seeds; validates the composite first.
CorruptionStats apply_composite(accel::WeightStationaryMapping& mapping,
                                const CompositeScenario& composite,
                                const CorruptionConfig& config = {});

/// `composite` with every component fraction multiplied by `factor`
/// (clamped to [0, 1]). The building block of ramp-up schedules.
CompositeScenario scaled(const CompositeScenario& composite, double factor);

/// One interval of a campaign timeline. A phase with no components is
/// dormant: the deployment is clean while the defender keeps checking (its
/// flags count as false positives, not detections).
struct CampaignPhase {
  std::string name;           // "dormant" / "ramp1" / "burst" ...
  CompositeScenario attack{}; // empty components = dormant phase
  std::size_t checks = 1;     // detector checks this phase spans

  bool active() const { return !attack.components.empty(); }
};

/// A timeline of scenario phases — the adaptive attacker. Each phase's
/// composite is applied to a clean deployment (corruption does not
/// accumulate across phases: the attacker re-triggers its trojan population
/// per phase, which is what the per-phase fractions describe).
struct CampaignSchedule {
  std::string name;  // human-readable label, part of id()
  std::vector<CampaignPhase> phases;

  /// Throws when the name is empty, there is no phase, a phase has no name
  /// or zero checks, or an active phase's composite is invalid.
  void validate() const;

  /// Stable identifier, "campaign/<name>/<fp8>" with the fingerprint mixed
  /// over every phase (name, checks, component ids, placement) — so two
  /// schedules sharing a label but differing anywhere never share cached
  /// results.
  std::string id() const;

  std::size_t total_checks() const;
  std::size_t active_phase_count() const;
  /// Index of the first active phase; phases.size() when all are dormant.
  std::size_t first_active_phase() const;
};

/// Ramp-up campaign: `scales` successive phases of `composite` scaled by
/// each factor (e.g. {0.02, 0.1, 0.5, 1.0} — start far below the monitors'
/// envelopes, escalate to full intensity).
CampaignSchedule ramp_campaign(const std::string& name,
                               const CompositeScenario& composite,
                               const std::vector<double>& scales,
                               std::size_t checks_per_phase = 1);

/// Burst campaign: `lead_dormant` dormant phases, one burst phase of
/// `composite`, `trail_dormant` dormant phases (the attacker that waits out
/// the defender's sampling schedule).
CampaignSchedule burst_campaign(const std::string& name,
                                const CompositeScenario& composite,
                                std::size_t lead_dormant,
                                std::size_t trail_dormant,
                                std::size_t burst_checks = 1);

/// The standard red-team set the campaign bench sweeps: a cross-block
/// disjoint composite ramp, a stealth-then-burst composite, and a dormant /
/// burst alternation. Placement seeds derive from `base_seed`.
std::vector<CampaignSchedule> standard_campaigns(std::uint64_t base_seed = 1000);

}  // namespace safelight::attack
