#include "core/mitigation.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

const VariantOutcome& MitigationReport::best_robust() const {
  require(!outcomes.empty(), "MitigationReport: no outcomes");
  const VariantOutcome* best = nullptr;
  for (const auto& outcome : outcomes) {
    if (outcome.variant.is_original()) continue;
    // Documented ordering: median under attack, then worst case (min),
    // then lexicographically smallest name — so the winner never depends
    // on the order the variants were swept in.
    const auto better = [&](const VariantOutcome& candidate) {
      if (candidate.under_attack.median != best->under_attack.median) {
        return candidate.under_attack.median > best->under_attack.median;
      }
      if (candidate.under_attack.min != best->under_attack.min) {
        return candidate.under_attack.min > best->under_attack.min;
      }
      return candidate.variant.name < best->variant.name;
    };
    if (best == nullptr || better(outcome)) best = &outcome;
  }
  require(best != nullptr, "MitigationReport: no robust variants evaluated");
  return *best;
}

const VariantOutcome& MitigationReport::outcome(
    const std::string& variant_name) const {
  for (const auto& o : outcomes) {
    if (o.variant.name == variant_name) return o;
  }
  fail_argument("MitigationReport: unknown variant '" + variant_name + "'");
}

std::vector<CellSweep> mitigation_sweeps(const ExperimentSpec& spec) {
  const ExperimentSetup setup = spec.resolved_setup();
  std::vector<CellSweep> sweeps;
  for (const VariantSpec& variant : paper_variants(spec.l2_strength)) {
    sweeps.push_back(scenario_sweep(
        spec, setup, variant,
        attack::paper_scenario_grid(spec.seed_count, spec.base_seed)));
  }
  return sweeps;
}

ExperimentResult run_mitigation_experiment(const ExperimentSpec& spec,
                                           RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  const ExperimentSetup setup = spec.resolved_setup();
  const auto scenarios =
      attack::paper_scenario_grid(spec.seed_count, spec.base_seed);

  MitigationReport report;
  report.model = setup.model;

  for (const CellSweep& sweep_of_variant : mitigation_sweeps(spec)) {
    const VariantSpec& variant = sweep_of_variant.variant;
    context.throw_if_cancelled("mitigation");
    context.note("mitigation: " + setup.tag() + " / " + variant.name);
    if (spec.verbose) {
      std::printf("[mitigation] %s / %s\n", setup.tag().c_str(),
                  variant.name.c_str());
      std::fflush(stdout);
    }
    const SweepResult sweep =
        run_scenario_sweep(spec, context, sweep_of_variant, scenarios);

    VariantOutcome outcome;
    outcome.variant = variant;
    outcome.baseline_accuracy = sweep.baseline_accuracy;
    if (variant.is_original()) {
      report.original_baseline = outcome.baseline_accuracy;
    }
    outcome.under_attack = sweep.under_attack();
    report.outcomes.push_back(std::move(outcome));
  }

  ExperimentResult result;
  result.payload = std::move(report);
  return result;
}

}  // namespace safelight::core
