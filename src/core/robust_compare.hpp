// Robust-vs-original comparison (paper §VI, Fig. 9).
//
// Compares the most robust variant against the Original model under
// actuation and hotspot attacks on 1 %, 5 % and 10 % of the *total* MRs
// (CONV+FC target), reporting accuracy intervals across placements and the
// recovered accuracy — the quantities behind the paper's
// "recover up to 5.4 % / 21.2 % / 30.7 %" claims.
#pragma once

#include "core/mitigation.hpp"

namespace safelight::core {

/// One (attack vector, fraction) cell of the Fig. 9 comparison.
struct RobustComparisonCell {
  attack::AttackVector vector;
  double fraction = 0.0;
  BoxStats original;   // Original accuracy across placements
  BoxStats robust;     // best robust variant accuracy across placements

  /// Worst-case drop of the original model vs its unattacked baseline.
  double original_drop(double baseline) const { return baseline - original.min; }
  /// Accuracy recovered in the worst case by the robust model.
  double recovered() const { return robust.min - original.min; }
};

/// Per-model robust-vs-original comparison (the data behind Fig. 9).
struct RobustComparisonReport {
  nn::ModelId model;
  std::string robust_variant_name;
  double original_baseline = 0.0;
  double robust_baseline = 0.0;
  std::vector<RobustComparisonCell> cells;  // 2 vectors x 3 fractions
};

}  // namespace safelight::core
