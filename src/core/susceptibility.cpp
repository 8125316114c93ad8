#include "core/susceptibility.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

bool scenario_in_group(const attack::AttackScenario& s,
                       attack::AttackVector vector,
                       attack::AttackTarget target, double fraction) {
  return s.vector == vector && s.target == target &&
         std::abs(s.fraction - fraction) < 1e-12;
}

}  // namespace

const SusceptibilityGroup& SusceptibilityReport::group(
    attack::AttackVector vector, attack::AttackTarget target,
    double fraction) const {
  for (const auto& g : groups) {
    if (g.vector == vector && g.target == target &&
        std::abs(g.fraction - fraction) < 1e-12) {
      return g;
    }
  }
  fail_argument("SusceptibilityReport::group: no such group");
}

double SusceptibilityReport::worst_drop(attack::AttackVector vector,
                                        attack::AttackTarget target,
                                        double fraction) const {
  return baseline_accuracy - group(vector, target, fraction).accuracy.min;
}

std::vector<CellSweep> susceptibility_sweeps(const ExperimentSpec& spec) {
  return {scenario_sweep(
      spec, spec.resolved_setup(), variant_by_name("Original"),
      attack::paper_scenario_grid(spec.seed_count, spec.base_seed))};
}

ExperimentResult::Payload assemble_susceptibility(
    const ExperimentSpec& spec, const std::vector<CellSweep>& /*sweeps*/,
    const std::vector<std::vector<SweptCell>>& swept) {
  const std::vector<attack::AttackScenario> grid =
      attack::paper_scenario_grid(spec.seed_count, spec.base_seed);
  const std::vector<double> accuracies = scenario_accuracies(swept.at(0));
  SAFELIGHT_ASSERT(accuracies.size() == grid.size(),
                   "susceptibility: sweep does not match its grid");

  SusceptibilityReport report;
  report.model = spec.model;
  report.baseline_accuracy = swept[0][0].values[0];
  report.rows.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    report.rows.push_back({grid[i], accuracies[i]});
  }

  // Aggregate into the 18 groups (2 vectors x 3 targets x 3 fractions).
  for (attack::AttackVector vector :
       {attack::AttackVector::kActuation, attack::AttackVector::kHotspot}) {
    for (attack::AttackTarget target :
         {attack::AttackTarget::kConvBlock, attack::AttackTarget::kFcBlock,
          attack::AttackTarget::kBothBlocks}) {
      for (double fraction : {0.01, 0.05, 0.10}) {
        std::vector<double> values;
        for (const auto& row : report.rows) {
          if (scenario_in_group(row.scenario, vector, target, fraction)) {
            values.push_back(row.accuracy);
          }
        }
        SAFELIGHT_ASSERT(!values.empty(),
                         "susceptibility: empty scenario group");
        report.groups.push_back(
            {vector, target, fraction, box_stats(std::move(values))});
      }
    }
  }

  return report;
}

}  // namespace safelight::core
