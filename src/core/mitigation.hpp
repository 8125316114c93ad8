// Mitigation analysis (paper §VI, Fig. 8).
//
// Evaluates every mitigation variant (Original, L2_reg, l2+n1..l2+n9)
// across the full attack scenario grid and summarizes each variant's
// accuracy distribution as box-whisker statistics. Also selects the most
// robust configuration per model (the paper found l2+n3 / l2+n5 / l2+n2
// for CNN_1 / ResNet18 / VGG16_v).
#pragma once

#include "core/susceptibility.hpp"

namespace safelight::core {

/// One mitigation variant's clean accuracy and accuracy distribution under
/// the full attack grid (one box of Fig. 8).
struct VariantOutcome {
  VariantSpec variant;
  double baseline_accuracy = 0.0;  // unattacked accuracy of this variant
  BoxStats under_attack;           // accuracy across all attack scenarios
};

/// Per-model mitigation analysis: one VariantOutcome per paper variant.
struct MitigationReport {
  nn::ModelId model;
  double original_baseline = 0.0;  // unattacked accuracy of Original
  std::vector<VariantOutcome> outcomes;

  /// Most robust non-Original variant: highest median accuracy under
  /// attack, ties broken by the worst case (min), then by name.
  const VariantOutcome& best_robust() const;

  /// Outcome of a variant by name; throws when the variant was not swept.
  const VariantOutcome& outcome(const std::string& variant_name) const;
};

}  // namespace safelight::core
