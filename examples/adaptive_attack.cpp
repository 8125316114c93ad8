// Adaptive attack campaign walk-through.
//
// Deploys CNN_1 on the accelerator, builds a two-component composite
// scenario (actuation trojans in the CONV block stacked with a thermal
// hotspot in the FC block, block-disjoint placement) and shows what it
// costs; then runs an evasive ramp campaign — the same composite starting
// far below the detector envelopes and escalating — through the campaign
// sweep, and reports per-detector evasion rate and detection latency.
//
// Usage: adaptive_attack [cnn1|resnet18|vgg16v]
// Defaults: cnn1, tiny scale (override with SAFELIGHT_SCALE).

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace sl = safelight;

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "cnn1";
  const sl::nn::ModelId id = sl::nn::model_id_from_string(model_name);
  const sl::Scale scale = sl::config::scale() == sl::Scale::kDefault
                              ? sl::Scale::kTiny  // examples stay fast
                              : sl::config::scale();

  std::printf("SafeLight adaptive attack campaign: %s at %s scale\n",
              model_name.c_str(), sl::to_string(scale).c_str());

  // The composite: full-strength actuation in CONV plus a hotspot in FC,
  // placed block-disjoint so no trojan is wasted on a shared victim.
  sl::attack::CompositeScenario composite;
  composite.placement = sl::attack::PlacementPolicy::kDisjointBlocks;
  composite.components.push_back({sl::attack::AttackVector::kActuation,
                                  sl::attack::AttackTarget::kConvBlock, 0.10,
                                  42});
  composite.components.push_back({sl::attack::AttackVector::kHotspot,
                                  sl::attack::AttackTarget::kFcBlock, 0.10,
                                  43});
  composite.validate();
  std::printf("\ncomposite: %s\n", composite.id().c_str());

  // The campaign: three dormant-opening checks, then the composite ramping
  // from 2 %% of its nominal intensity up to full strength.
  sl::attack::CampaignSchedule schedule = sl::attack::ramp_campaign(
      "walkthrough-ramp", composite, {0.02, 0.2, 1.0}, /*checks_per_phase=*/2);
  schedule.phases.insert(schedule.phases.begin(),
                         {"dormant", {}, /*checks=*/3});
  schedule.validate();
  std::printf("campaign:  %s (%zu phases, %zu checks)\n", schedule.id().c_str(),
              schedule.phases.size(), schedule.total_checks());

  const auto& registry = sl::core::ExperimentRegistry::global();
  sl::core::ExperimentSpec spec = registry.default_spec("campaign");
  spec.model = id;
  spec.scale = scale;
  spec.campaigns = {schedule};
  sl::core::ModelZoo zoo;
  spec.cache_dir = zoo.directory();
  sl::core::RunContext context(zoo);
  const sl::core::CampaignSweepReport report =
      registry.run(spec, context).as<sl::core::CampaignSweepReport>();
  const sl::core::CampaignResult& result = report.campaigns.front();

  std::printf("\nbaseline accuracy: %s\n\n",
              sl::core::pct(result.baseline_accuracy).c_str());
  sl::core::TextTable phase_table(
      {"phase", "active", "accuracy", "drop", "flagged by"});
  for (std::size_t pi = 0; pi < result.phases.size(); ++pi) {
    const auto& phase = result.phases[pi];
    std::string flagged_by;
    for (const std::string& detector : result.detectors) {
      if (!result.phase_flagged(pi, detector)) continue;
      if (!flagged_by.empty()) flagged_by += ", ";
      flagged_by += detector;
    }
    phase_table.add_row({phase.name, phase.active ? "yes" : "-",
                         sl::core::pct(phase.accuracy),
                         sl::core::pct(result.accuracy_drop(pi)),
                         flagged_by.empty() ? "(evaded)" : flagged_by});
  }
  std::printf("%s\n", phase_table.render().c_str());

  sl::core::TextTable detector_table(
      {"detector", "evasion rate", "detection latency"});
  const bool has_active = schedule.active_phase_count() > 0;
  for (const std::string& detector : result.detectors) {
    const std::size_t latency = result.detection_latency_checks(detector);
    detector_table.add_row(
        {detector,
         has_active ? sl::core::pct(result.evasion_rate(detector)) : "-",
         latency == 0 ? "never" : std::to_string(latency) + " checks"});
  }
  std::printf("%s", detector_table.render().c_str());
  return 0;
}
