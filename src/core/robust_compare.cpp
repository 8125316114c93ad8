#include "core/robust_compare.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

/// The inner mitigation spec robust_compare selects its robust variant
/// with when `spec.robust_variant` is empty. Mitigation's own defaults keep
/// its paper seed count (3); only the settings that define "the same
/// experiment" carry over. The selection must rank variants under the same
/// attack model the comparison uses, hence the corruption copy.
ExperimentSpec robust_compare_selection_spec(const ExperimentSpec& spec) {
  ExperimentSpec mitigation_spec =
      ExperimentRegistry::global().default_spec("mitigation");
  mitigation_spec.model = spec.model;
  mitigation_spec.scale = spec.scale;
  mitigation_spec.base_seed = spec.base_seed;
  mitigation_spec.l2_strength = spec.l2_strength;
  mitigation_spec.cache_dir = spec.cache_dir;
  mitigation_spec.max_workers = spec.max_workers;
  mitigation_spec.verbose = spec.verbose;
  mitigation_spec.corruption = spec.corruption;
  return mitigation_spec;
}

/// The comparison grid robust_compare sweeps for Original and the robust
/// variant: one combined grid (2 vectors x CONV+FC x {1, 5, 10} % x
/// spec.seed_count placements), swept once per model; cells are sliced out
/// afterwards.
std::vector<attack::AttackScenario> robust_compare_grid(
    const ExperimentSpec& spec) {
  return attack::scenario_grid(
      {attack::AttackVector::kActuation, attack::AttackVector::kHotspot},
      {attack::AttackTarget::kBothBlocks}, {0.01, 0.05, 0.10},
      spec.seed_count, spec.base_seed);
}

}  // namespace

std::vector<CellSweep> robust_compare_sweeps(const ExperimentSpec& spec) {
  if (spec.robust_variant.empty()) return {};
  const ExperimentSetup setup = spec.resolved_setup();
  return {scenario_sweep(spec, setup, variant_by_name("Original"),
                         robust_compare_grid(spec)),
          scenario_sweep(
              spec, setup,
              variant_by_name(spec.robust_variant, spec.l2_strength),
              robust_compare_grid(spec))};
}

ExperimentSpec resolve_robust_compare(const ExperimentSpec& spec,
                                      RunContext& context) {
  ExperimentSpec pinned = spec;
  if (pinned.robust_variant.empty()) {
    // Select via the mitigation sweep at its own paper seed count (3).
    context.note("robust_compare: selecting robust variant");
    pinned.robust_variant = ExperimentRegistry::global()
                                .run(robust_compare_selection_spec(spec),
                                     context)
                                .as<MitigationReport>()
                                .best_robust()
                                .variant.name;
  }
  return pinned;
}

ExperimentResult::Payload assemble_robust_compare(
    const ExperimentSpec& spec, const std::vector<CellSweep>& /*sweeps*/,
    const std::vector<std::vector<SweptCell>>& swept) {
  const auto grid = robust_compare_grid(spec);
  const std::vector<double> original_accuracies =
      scenario_accuracies(swept.at(0));
  const std::vector<double> robust_accuracies =
      scenario_accuracies(swept.at(1));
  SAFELIGHT_ASSERT(original_accuracies.size() == grid.size() &&
                       robust_accuracies.size() == grid.size(),
                   "robust_compare: sweeps do not match their grid");

  RobustComparisonReport report;
  report.model = spec.model;
  report.robust_variant_name = spec.robust_variant;
  report.original_baseline = swept[0][0].values[0];
  report.robust_baseline = swept[1][0].values[0];

  for (attack::AttackVector vector :
       {attack::AttackVector::kActuation, attack::AttackVector::kHotspot}) {
    for (double fraction : {0.01, 0.05, 0.10}) {
      std::vector<double> original_acc, robust_acc;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].vector != vector ||
            std::abs(grid[i].fraction - fraction) >= 1e-12) {
          continue;
        }
        original_acc.push_back(original_accuracies[i]);
        robust_acc.push_back(robust_accuracies[i]);
      }
      RobustComparisonCell cell;
      cell.vector = vector;
      cell.fraction = fraction;
      cell.original = box_stats(std::move(original_acc));
      cell.robust = box_stats(std::move(robust_acc));
      report.cells.push_back(cell);
    }
  }

  return report;
}

}  // namespace safelight::core
