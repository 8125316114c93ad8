// Runtime attack-detection interface (the defense subsystem's contract).
//
// SafeLight's offense side quantifies how much accuracy an implanted trojan
// costs; the defense side asks the complementary production question: "is
// this deployed accelerator under attack right now?" A Detector is a
// runtime integrity monitor that is calibrated once against a known-good
// deployment and then re-checked periodically. Three concrete detectors
// ship with the subsystem, each observing a different physical surface:
//   * defense::CanaryProbeDetector   — recomputation signatures (canary.hpp)
//   * defense::RangeMonitorDetector  — read-out statistics (range_monitor.hpp)
//   * defense::ThermalSentinelDetector — on-die temperature (thermal_sentinel.hpp)
// core/detection.hpp sweeps all of them across the attack scenario grid and
// turns the scores into ROC curves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/executor.hpp"
#include "attacks/hotspot.hpp"
#include "nn/sequential.hpp"

namespace safelight::defense {

/// Everything a detector may observe about one deployed accelerator state.
/// Detectors never modify the model weights; the executor reference is
/// non-const only because probe passes install an *observing* read-out hook
/// (removed again before the call returns).
struct DeploymentView {
  /// Conditioned (and possibly attacked) model as deployed on the MR banks.
  nn::Sequential& model;
  /// The executor that drives probe inference on this deployment.
  accel::OnnExecutor& executor;
  /// On-die thermal telemetry: one solved state per thermally active block.
  /// nullptr or empty means every temperature sensor reads ambient.
  const std::vector<attack::BlockThermalState>* thermal = nullptr;
  /// Seeds the measurement noise / probe ordering of this check so repeated
  /// clean checks model distinct physical read-outs, deterministically.
  std::uint64_t probe_seed = 0;
};

/// Probe seed of one check, derived from its full store key so every check
/// reads independent sensor noise and a cached score is a pure function of
/// the key.
std::uint64_t probe_seed_of(const std::string& key);

/// Verdict of one detector check.
struct DetectionResult {
  std::string detector;   // Detector::name() of the producer
  double score = 0.0;     // anomaly score >= 0; higher = more anomalous
  bool flagged = false;   // score exceeded the detector's threshold
  /// Probe inferences (canaries / monitored images / sensor samples) this
  /// check consumed — the denominator of detection latency.
  std::size_t probes = 0;
  /// 1-based index of the first probe whose running evidence crossed the
  /// threshold (the detection latency in probes); 0 when never flagged.
  std::size_t first_flag_probe = 0;
};

/// A runtime integrity monitor: calibrate once on a clean deployment, then
/// check() the (possibly compromised) deployment periodically. Implementations
/// must be deterministic in (deployment state, probe_seed) so detection
/// sweeps cache and resume like every other SafeLight experiment.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Stable identifier ("canary" / "range_monitor" / "thermal_sentinel");
  /// used in report rows and cache keys.
  virtual std::string name() const = 0;

  /// Records the clean reference (signatures, envelopes, ambient baseline)
  /// from a freshly deployed, known-good accelerator. Must be called before
  /// check(); throws std::logic_error otherwise.
  virtual void calibrate(const DeploymentView& clean) = 0;
  virtual bool calibrated() const = 0;

  /// One detection pass over the deployment. Does not modify weights.
  virtual DetectionResult check(const DeploymentView& view) = 0;

  /// Decision threshold on the score; check() flags when score > threshold.
  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

 protected:
  explicit Detector(double default_threshold)
      : threshold_(default_threshold) {}

  /// Shared result scaffolding: name/score/flag fields filled in.
  DetectionResult make_result(double score, std::size_t probes,
                              std::size_t first_flag_probe) const;

 private:
  double threshold_;
};

/// RAII installer for an *observing* read-out hook: pushes onto the
/// executor's hook stack on construction, always pops on scope exit — so a
/// probe forward that throws (e.g. a shape-mismatched probe set) never
/// leaves a stale hook behind on a shared executor. Stacks freely on top of
/// already-installed hooks (e.g. an active ADC-trojan payload during a
/// campaign check): the observer then sees the read-out exactly as the
/// downstream electronics would.
class ScopedObservingHook {
 public:
  ScopedObservingHook(accel::OnnExecutor& executor, accel::ReadoutHook hook);
  ~ScopedObservingHook();

  ScopedObservingHook(const ScopedObservingHook&) = delete;
  ScopedObservingHook& operator=(const ScopedObservingHook&) = delete;

 private:
  accel::OnnExecutor& executor_;
  std::size_t depth_ = 0;  // stack depth right after our push
};

}  // namespace safelight::defense
