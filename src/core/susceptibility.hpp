// Susceptibility analysis (paper §IV, Fig. 7).
//
// Runs a model (usually the Original variant) against the full attack
// scenario grid: {actuation, hotspot} x {CONV, FC, CONV+FC} x
// {1 %, 5 %, 10 %} x N random placements, and aggregates accuracies per
// group — the data behind Fig. 7(a)-(c) and the paper's headline
// "7.49 % / 26.4 % / 80.46 % drop at 10 % hotspot" numbers.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/zoo.hpp"

namespace safelight::core {

/// One evaluated scenario: the attack descriptor and the accuracy it left.
struct SusceptibilityRow {
  attack::AttackScenario scenario;
  double accuracy = 0.0;
};

/// Aggregate over one (vector, target, fraction) grid cell.
struct SusceptibilityGroup {
  attack::AttackVector vector;
  attack::AttackTarget target;
  double fraction;
  BoxStats accuracy;  // across placement seeds
};

/// Full susceptibility analysis of one model: raw rows plus the 18
/// aggregated groups behind Fig. 7.
struct SusceptibilityReport {
  nn::ModelId model;
  double baseline_accuracy = 0.0;
  std::vector<SusceptibilityRow> rows;
  std::vector<SusceptibilityGroup> groups;

  /// Largest accuracy drop (baseline - min accuracy) within a group;
  /// throws when the group does not exist.
  double worst_drop(attack::AttackVector vector,
                    attack::AttackTarget target, double fraction) const;

  const SusceptibilityGroup& group(attack::AttackVector vector,
                                   attack::AttackTarget target,
                                   double fraction) const;
};

}  // namespace safelight::core
