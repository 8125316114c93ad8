// Detector suite: the three shipped detectors behind one calibrate/check.
//
// Builds the canary probe, read-out range monitor and thermal sentinel
// detectors for an experiment setup, sourcing the held-out probe datasets
// from the setup's synthetic generator under probe-specific seeds (so
// calibration inputs never overlap the attack-evaluation subset). The
// suite is what the detection and campaign sweeps' deployments
// (core::Deployment) calibrate; config_fingerprint keys the sweep's result
// store so re-tuned detector knobs never reuse stale cached scores.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attacks/corruption.hpp"
#include "core/experiment_scale.hpp"
#include "defense/canary.hpp"
#include "defense/range_monitor.hpp"
#include "defense/thermal_sentinel.hpp"

namespace safelight::defense {

struct SuiteConfig {
  CanaryConfig canary{};
  RangeMonitorConfig range{};
  ThermalSentinelConfig sentinel{};
  /// Seed offset of the held-out probe datasets relative to the setup's
  /// test-data seed (keeps probes disjoint from the eval stream).
  std::uint64_t probe_data_seed = 97;
};

/// Short fingerprint over every suite knob; detection result stores key
/// their files on it (mirrors attack::config_fingerprint).
std::string config_fingerprint(const SuiteConfig& config);

class DetectorSuite {
 public:
  explicit DetectorSuite(const core::ExperimentSetup& setup,
                         SuiteConfig config = {});

  std::size_t size() const { return detectors_.size(); }
  Detector& detector(std::size_t i) { return *detectors_[i]; }
  /// Detector by name; throws std::invalid_argument when unknown.
  Detector& detector(const std::string& name);
  std::vector<std::string> names() const;

  /// Calibrates every detector on the clean deployment.
  void calibrate(const DeploymentView& clean);

  /// Checks every detector; results in detector order.
  std::vector<DetectionResult> check_all(const DeploymentView& view);

  const SuiteConfig& config() const { return config_; }

 private:
  SuiteConfig config_;
  std::vector<std::unique_ptr<Detector>> detectors_;
};

/// The thermal field `scenario` leaves on the die, re-planned from the
/// scenario seed: a second plan_hotspot_attack (victim sampling plus the
/// thermal solve) for a field the attack already returned — read
/// attack::CorruptionStats::thermal instead. Empty for no-op and actuation
/// scenarios. Kept only for the perfbench probe, which times it.
std::vector<attack::BlockThermalState> scenario_telemetry(
    const accel::AcceleratorConfig& accel,
    const attack::AttackScenario& scenario,
    const attack::CorruptionConfig& corruption = {});

}  // namespace safelight::defense
