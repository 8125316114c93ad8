#include "core/mitigation.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

/// The sweep proper, in the unified-API shape: spec in, typed report out.
MitigationReport mitigation_impl(const ExperimentSpec& spec,
                                 RunContext& context) {
  const ExperimentSetup setup = spec.resolved_setup();
  const auto scenarios =
      attack::paper_scenario_grid(spec.seed_count, spec.base_seed);

  MitigationReport report;
  report.model = setup.model;

  for (const VariantSpec& variant : paper_variants(spec.l2_strength)) {
    context.throw_if_cancelled("mitigation");
    context.note("mitigation: " + setup.tag() + " / " + variant.name);
    if (spec.verbose) {
      std::printf("[mitigation] %s / %s\n", setup.tag().c_str(),
                  variant.name.c_str());
      std::fflush(stdout);
    }
    const SweepResult sweep = sweep_variant(spec, context, variant, scenarios);

    VariantOutcome outcome;
    outcome.variant = variant;
    outcome.baseline_accuracy = sweep.baseline_accuracy;
    if (variant.is_original()) {
      report.original_baseline = outcome.baseline_accuracy;
    }
    outcome.under_attack = sweep.under_attack();
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace

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

ExperimentResult run_mitigation_experiment(const ExperimentSpec& spec,
                                           RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  ExperimentResult result;
  result.payload = mitigation_impl(spec, context);
  return result;
}

}  // namespace safelight::core
