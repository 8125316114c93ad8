// Read-out range monitor: per-layer activation envelopes.
//
// ONN read-out electronics already measure every mapped layer's output to
// pick ADC scales, so per-layer summary statistics (abs-max, mean |x|,
// saturation fraction) are nearly free to collect. At deployment the
// monitor records each mapped layer's clean statistics envelope over a
// held-out calibration stream; periodic checks re-collect the statistics
// through an *observing* OnnExecutor read-out hook and score how far any
// layer escapes its calibrated envelope. Actuation parking inflates
// abs-max/saturation (weights stick at full magnitude); hotspot shifts
// drag whole bank clusters, moving mean levels — both surface here without
// any golden recompute.
//
// Check batches are drawn from the calibration stream itself (a probe_seed
// -picked subset), so a clean check is always inside the envelope: like the
// canary probes, the monitor's false-positive rate is structurally zero at
// the default threshold.
#pragma once

#include <vector>

#include "defense/detector.hpp"
#include "nn/dataset.hpp"

namespace safelight::defense {

struct RangeMonitorConfig {
  /// Calibration images held out for the monitor (DetectorSuite sizes the
  /// probe dataset with this; checks sample a subset of its batches).
  std::size_t probe_count = 96;
  /// Images monitored per check (clamped to the probe pool).
  std::size_t check_count = 64;
  std::size_t batch_size = 16;
  /// Relative widening of the calibrated [min, max] envelope; excursions
  /// are scored in units of the (floored) envelope width.
  double envelope_margin = 0.10;
  /// |x| >= saturation_level * full_scale counts as a saturated read-out.
  double saturation_level = 0.98;

  void validate() const;
};

/// Summary statistics of one mapped layer's read-out over one batch.
struct ReadoutStats {
  double abs_max = 0.0;
  double mean_abs = 0.0;
  double saturation = 0.0;  // fraction of saturated read-outs
};

/// See file comment. Score = worst normalized envelope excursion across the
/// checked batches; the default threshold of 0 flags any excursion beyond
/// the widened envelope.
class RangeMonitorDetector : public Detector {
 public:
  /// `probes` is the held-out calibration stream; the detector copies it.
  explicit RangeMonitorDetector(nn::Dataset probes,
                                RangeMonitorConfig config = {});

  std::string name() const override { return "range_monitor"; }
  void calibrate(const DeploymentView& clean) override;
  bool calibrated() const override { return !envelopes_.empty(); }
  DetectionResult check(const DeploymentView& view) override;

  const RangeMonitorConfig& config() const { return config_; }

  /// Mapped-layer statistics of one probe batch on the given deployment
  /// (exposed for tests; calibrate/check are built on it).
  std::vector<ReadoutStats> batch_stats(const DeploymentView& view,
                                        std::size_t batch_index) const;

 private:
  /// Number of probe batches the calibration stream splits into.
  std::size_t batch_count() const;

  /// Calibrated [lo, hi] per metric of one mapped layer, pre-widening.
  struct Envelope {
    double lo[3] = {0.0, 0.0, 0.0};
    double hi[3] = {0.0, 0.0, 0.0};
  };

  /// Worst normalized excursion of `stats` outside `envelope`.
  double violation(const std::vector<ReadoutStats>& stats) const;

  nn::Dataset probes_;
  RangeMonitorConfig config_;
  std::vector<Envelope> envelopes_;  // one per mapped layer, walk order
};

}  // namespace safelight::defense
