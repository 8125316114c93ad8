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

ExperimentResult run_susceptibility_experiment(const ExperimentSpec& spec,
                                               RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  const ExperimentSetup setup = spec.resolved_setup();
  context.note("susceptibility: sweep " + setup.tag());
  const SweepResult sweep =
      run_scenario_sweep(spec, context, susceptibility_sweeps(spec).at(0),
                         attack::paper_scenario_grid(spec.seed_count,
                                                     spec.base_seed));

  SusceptibilityReport report;
  report.model = setup.model;
  report.baseline_accuracy = sweep.baseline_accuracy;
  report.rows.reserve(sweep.rows.size());
  for (const auto& outcome : sweep.rows) {
    report.rows.push_back({outcome.scenario, outcome.accuracy});
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

  ExperimentResult result;
  result.payload = std::move(report);
  return result;
}

}  // namespace safelight::core
