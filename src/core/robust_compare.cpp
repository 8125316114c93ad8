#include "core/robust_compare.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

const RobustComparisonCell& RobustComparisonReport::cell(
    attack::AttackVector vector, double fraction) const {
  for (const auto& c : cells) {
    if (c.vector == vector && std::abs(c.fraction - fraction) < 1e-12) {
      return c;
    }
  }
  fail_argument("RobustComparisonReport::cell: no such cell");
}

ExperimentSpec robust_compare_selection_spec(const ExperimentSpec& spec) {
  // Mitigation's own defaults keep its paper seed count (3); only the
  // settings that define "the same experiment" carry over. The selection
  // must rank variants under the same attack model the comparison uses,
  // hence the corruption copy.
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

std::vector<attack::AttackScenario> robust_compare_grid(
    const ExperimentSpec& spec) {
  // One combined grid (2 vectors x 3 fractions x seeds on CONV+FC), swept
  // once per model; cells are sliced out afterwards.
  return attack::scenario_grid(
      {attack::AttackVector::kActuation, attack::AttackVector::kHotspot},
      {attack::AttackTarget::kBothBlocks}, {0.01, 0.05, 0.10},
      spec.seed_count, spec.base_seed);
}

namespace {

/// The comparison proper, in the unified-API shape: spec in, report out.
RobustComparisonReport robust_compare_impl(const ExperimentSpec& spec,
                                           RunContext& context) {
  const ExperimentSetup setup = spec.resolved_setup();

  std::string robust_name = spec.robust_variant;
  if (robust_name.empty()) {
    // Select via the mitigation sweep at its own paper seed count (3).
    context.note("robust_compare: selecting robust variant");
    robust_name = ExperimentRegistry::global()
                      .run(robust_compare_selection_spec(spec), context)
                      .as<MitigationReport>()
                      .best_robust()
                      .variant.name;
  }
  context.throw_if_cancelled("robust_compare");

  const auto grid = robust_compare_grid(spec);

  context.note("robust_compare: sweeping Original vs " + robust_name);
  const SweepResult original_sweep =
      sweep_variant(spec, context, variant_by_name("Original"), grid);
  const SweepResult robust_sweep = sweep_variant(
      spec, context, variant_by_name(robust_name, spec.l2_strength), grid);

  RobustComparisonReport report;
  report.model = setup.model;
  report.robust_variant_name = robust_name;
  report.original_baseline = original_sweep.baseline_accuracy;
  report.robust_baseline = robust_sweep.baseline_accuracy;

  for (attack::AttackVector vector :
       {attack::AttackVector::kActuation, attack::AttackVector::kHotspot}) {
    for (double fraction : {0.01, 0.05, 0.10}) {
      std::vector<double> original_acc, robust_acc;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].vector != vector ||
            std::abs(grid[i].fraction - fraction) >= 1e-12) {
          continue;
        }
        original_acc.push_back(original_sweep.rows[i].accuracy);
        robust_acc.push_back(robust_sweep.rows[i].accuracy);
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

}  // namespace

ExperimentResult run_robust_compare_experiment(const ExperimentSpec& spec,
                                               RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  ExperimentResult result;
  result.payload = robust_compare_impl(spec, context);
  return result;
}

}  // namespace safelight::core
