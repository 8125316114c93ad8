#include "defense/suite.hpp"

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/trace.hpp"
#include "nn/synthetic.hpp"

namespace safelight::defense {

std::string config_fingerprint(const SuiteConfig& config) {
  Fingerprint fp;
  fp.mix_u64(config.canary.canary_count)
      .mix_u64(config.canary.signature_bits)
      .mix_u64(config.range.probe_count)
      .mix_u64(config.range.check_count)
      .mix_u64(config.range.batch_size)
      .mix_double(config.range.envelope_margin)
      .mix_double(config.range.saturation_level)
      .mix_u64(config.sentinel.sites_per_unit)
      .mix_double(config.sentinel.sensor_noise_k)
      .mix_double(config.sentinel.threshold_k)
      .mix_u64(config.probe_data_seed);
  return fp.hex8();
}

namespace {

/// Held-out probe images drawn from the setup's synthetic family under a
/// probe-specific seed (disjoint stream from both train and eval data).
nn::Dataset probe_data(const core::ExperimentSetup& setup, std::size_t count,
                       std::uint64_t seed_offset) {
  nn::SynthConfig config = setup.test_data;
  config.count = count;
  config.seed = setup.test_data.seed + seed_offset;
  return nn::make_synthetic(setup.dataset_family, config);
}

}  // namespace

DetectorSuite::DetectorSuite(const core::ExperimentSetup& setup,
                             SuiteConfig config)
    : config_(config) {
  detectors_.push_back(std::make_unique<CanaryProbeDetector>(
      probe_data(setup, config_.canary.canary_count,
                 config_.probe_data_seed),
      config_.canary));
  detectors_.push_back(std::make_unique<RangeMonitorDetector>(
      probe_data(setup, config_.range.probe_count,
                 config_.probe_data_seed + 1),
      config_.range));
  detectors_.push_back(std::make_unique<ThermalSentinelDetector>(
      setup.accelerator, config_.sentinel));
}

Detector& DetectorSuite::detector(const std::string& name) {
  for (auto& d : detectors_) {
    if (d->name() == name) return *d;
  }
  fail_argument("DetectorSuite: unknown detector '" + name + "'");
}

std::vector<std::string> DetectorSuite::names() const {
  std::vector<std::string> out;
  out.reserve(detectors_.size());
  for (const auto& d : detectors_) out.push_back(d->name());
  return out;
}

void DetectorSuite::calibrate(const DeploymentView& clean) {
  for (auto& d : detectors_) d->calibrate(clean);
}

std::vector<DetectionResult> DetectorSuite::check_all(
    const DeploymentView& view) {
  std::vector<DetectionResult> results;
  results.reserve(detectors_.size());
  for (auto& d : detectors_) {
    trace::Span span("detect", "detector.check");
    if (span.active()) span.arg("detector", d->name());
    results.push_back(d->check(view));
    if (span.active()) {
      span.arg("score", results.back().score)
          .arg("probes", static_cast<double>(results.back().probes));
    }
  }
  return results;
}

std::vector<attack::BlockThermalState> scenario_telemetry(
    const accel::AcceleratorConfig& accel,
    const attack::AttackScenario& scenario,
    const attack::CorruptionConfig& corruption) {
  if (scenario.vector != attack::AttackVector::kHotspot ||
      scenario.fraction <= 0.0) {
    return {};
  }
  attack::HotspotPlan plan =
      attack::plan_hotspot_attack(accel, scenario, corruption.hotspot);
  return std::move(plan.block_states);
}

}  // namespace safelight::defense
