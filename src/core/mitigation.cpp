#include "core/mitigation.hpp"

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

ExperimentResult::Payload assemble_mitigation(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept) {
  MitigationReport report;
  report.model = spec.model;

  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const VariantSpec& variant = sweeps[s].variant;
    VariantOutcome outcome;
    outcome.variant = variant;
    outcome.baseline_accuracy = swept[s][0].values[0];
    if (variant.is_original()) {
      report.original_baseline = outcome.baseline_accuracy;
    }
    outcome.under_attack = box_stats(scenario_accuracies(swept[s]));
    report.outcomes.push_back(std::move(outcome));
  }

  return report;
}

}  // namespace safelight::core
