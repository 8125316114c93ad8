#include "core/susceptibility.hpp"

#include <cmath>
#include <cstdio>

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

/// The sweep proper, in the unified-API shape: spec in, typed report out.
SusceptibilityReport susceptibility_impl(const ExperimentSpec& spec,
                                         RunContext& context) {
  const ExperimentSetup setup = spec.resolved_setup();
  context.note("susceptibility: sweep " + setup.tag());
  const SweepResult sweep = sweep_variant(
      spec, context, variant_by_name("Original"),
      attack::paper_scenario_grid(spec.seed_count, spec.base_seed));

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
  return report;
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

std::vector<SusceptibilityRow> evaluate_grid(
    AttackEvaluator& evaluator,
    const std::vector<attack::AttackScenario>& scenarios, bool verbose) {
  std::vector<SusceptibilityRow> rows;
  rows.reserve(scenarios.size());
  for (const auto& scenario : scenarios) {
    SusceptibilityRow row;
    row.scenario = scenario;
    row.accuracy = evaluator.evaluate_scenario(scenario);
    rows.push_back(row);
    if (verbose) {
      std::printf("  %-32s acc %.4f\n", scenario.id().c_str(), row.accuracy);
      std::fflush(stdout);
    }
  }
  return rows;
}

ExperimentResult run_susceptibility_experiment(const ExperimentSpec& spec,
                                               RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  ExperimentResult result;
  result.payload = susceptibility_impl(spec, context);
  return result;
}

}  // namespace safelight::core
