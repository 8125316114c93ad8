// Campaign-evaluation sweep: red-team campaigns vs. the defense suite.
//
// The detection sweep (core/detection.hpp) scores detectors against the
// paper's static single-vector grid — every run is one scenario at one
// fixed intensity. This module runs *campaigns* (attacks/campaign.hpp):
// composite multi-vector scenarios that evolve over a phase timeline, so an
// attack can start below a range monitor's calibrated envelope, stay
// dormant while the defender samples, and burst later. Per campaign it
// reports the per-phase accuracy drop (what the attack costs while live),
// per-detector detection latency in checks, and the evasion rate — the
// fraction of active phases where the attack goes unflagged.
//
// It declares one sweep on the same cell-sweep engine as the other
// experiments (campaign_sweeps, core/pipeline.hpp): the clean baseline,
// one accuracy per distinct active composite and every phase's detector
// checks are cells that evaluate in parallel over private deployments (or
// across --workers), persist as one durable append each in the store with
// suffix `_<suite fingerprint>.campaign.csv`, and resume after an
// interrupt or a cancel. Phase scores key on the schedule's stable id;
// accuracies key on the composite id alone, so campaigns sharing a
// composite (e.g. a burst phase equal to a ramp's peak) share one
// accuracy cell, evaluated and stored once.
//
// Run it as the registry's "campaign" experiment (core/experiment.hpp): the
// spec names the deployed variant and the schedules (the standard red-team
// set when empty).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace safelight::core {

/// One (phase, check, detector) cell of a campaign run.
struct CampaignCell {
  std::size_t phase = 0;  // phase index within the schedule
  std::size_t check = 0;  // check index within the phase
  std::string detector;
  double score = 0.0;
  bool flagged = false;  // at the detector's default threshold
  bool from_cache = false;
};

/// One phase of a campaign as evaluated: bookkeeping plus the deployment
/// accuracy while the phase's attack is live (baseline for dormant phases).
struct CampaignPhaseOutcome {
  std::string name;
  bool active = false;
  std::size_t checks = 1;
  double accuracy = 0.0;
};

/// Outcome of one campaign schedule against one deployed variant.
struct CampaignResult {
  std::string campaign;     // schedule name
  std::string campaign_id;  // schedule id (cache-key prefix)
  double baseline_accuracy = 0.0;
  std::vector<std::string> detectors;  // suite order
  std::vector<CampaignPhaseOutcome> phases;
  /// Phase-major, check-, detector-minor.
  std::vector<CampaignCell> cells;

  /// Cell of (phase, check, detector); nullptr when absent.
  const CampaignCell* cell(std::size_t phase, std::size_t check,
                           const std::string& detector) const;

  /// Accuracy cost of a phase: baseline - phase accuracy.
  double accuracy_drop(std::size_t phase) const;

  /// True when the detector flagged any check of the phase.
  bool phase_flagged(std::size_t phase, const std::string& detector) const;

  /// Fraction of *active* phases the detector never flagged — the
  /// campaign's headline metric. Throws when the schedule has no active
  /// phase.
  double evasion_rate(const std::string& detector) const;

  /// Checks elapsed from the start of the first active phase until the
  /// detector's first flag *in an active phase* (1 = flagged immediately).
  /// Dormant-phase checks in between count — they are real elapsed defender
  /// time — but a dormant-phase flag is a false positive, not a detection.
  /// 0 when the detector never flagged an active phase.
  std::size_t detection_latency_checks(const std::string& detector) const;
};

/// Outcome of one campaign sweep (the "campaign" experiment's report).
struct CampaignSweepReport {
  std::string variant;
  std::vector<CampaignResult> campaigns;  // campaign input order
  std::size_t evaluated = 0;   // phases computed in this sweep
  std::size_t cache_hits = 0;  // phases served from the result store
};

}  // namespace safelight::core
