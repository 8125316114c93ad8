// Detection-evaluation sweep: how well do the runtime detectors work?
//
// The offense experiments ask "how much accuracy does an attack cost"; this
// module asks "would the defense subsystem have caught it". For one trained
// variant each engine deployment (core::Deployment) calibrates a
// defense::DetectorSuite on the clean model, and then checks every
// detector against each run of {clean deployments x the attack scenario
// grid}. Each run is one cell of the sweep the experiment declares
// (detection_sweeps, core/pipeline.hpp), so sweeps are parallel, cached,
// resumable, cancellable, deterministic and split across --workers,
// with the store suffix `_<suite fingerprint>.detect.csv`. A cell's
// scores persist as one durable append.
// The report aggregates per-detector ROC curves (TPR/FPR vs. threshold),
// rank-based AUC with optional (vector, intensity) filters, false-positive
// rates at the default thresholds, and detection latency (probe inferences
// until first flag).
//
// Run it as the registry's "detection" experiment (core/experiment.hpp):
// the spec names the deployed variant, the clean-run count and optionally an
// explicit scenario grid (the paper's SIV grid when absent).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "attacks/scenario.hpp"
#include "common/stats.hpp"

namespace safelight::core {

/// One (run, detector) cell of the detection sweep.
struct DetectionRow {
  std::string run_id;  // scenario id, or "clean/c<k>" for clean runs
  bool clean = false;
  attack::AttackScenario scenario{};  // meaningful only when !clean
  std::string detector;
  double score = 0.0;
  /// Verdict at the detector's default threshold (recorded at check time).
  bool flagged = false;
  std::size_t probes = 0;
  std::size_t first_flag_probe = 0;  // 0 = never flagged
  bool from_cache = false;
};

/// One operating point of an ROC curve: verdicts use score > threshold.
struct RocPoint {
  double threshold = 0.0;
  double tpr = 0.0;  // flagged fraction of the attack runs
  double fpr = 0.0;  // flagged fraction of the clean runs
};

struct RocCurve {
  std::string detector;
  std::vector<RocPoint> points;  // thresholds descending: (0,0) -> (1,1)
  double auc = 0.0;              // rank-based (ties count half)
};

/// Outcome of one detection sweep (the "detection" experiment's report).
struct DetectionReport {
  std::string variant;
  std::vector<std::string> detectors;  // suite order
  /// Run-major (clean runs first, then grid order), detector-minor.
  std::vector<DetectionRow> rows;
  std::size_t clean_runs = 0;
  std::size_t evaluated = 0;   // runs checked in this sweep
  std::size_t cache_hits = 0;  // runs served from the result store

  /// Scores of the clean runs for one detector, in run order.
  std::vector<double> clean_scores(const std::string& detector) const;

  /// Scores of the attack runs for one detector, optionally restricted to
  /// one vector and to intensities >= min_fraction.
  std::vector<double> attack_scores(
      const std::string& detector,
      std::optional<attack::AttackVector> vector = std::nullopt,
      double min_fraction = 0.0) const;

  /// Flagged fraction of clean runs at the default threshold.
  double false_positive_rate(const std::string& detector) const;

  /// Flagged fraction of the (filtered) attack runs at the default
  /// threshold.
  double true_positive_rate(
      const std::string& detector,
      std::optional<attack::AttackVector> vector = std::nullopt,
      double min_fraction = 0.0) const;

  /// Rank-based AUC of the detector's scores: clean runs are the negative
  /// class, (filtered) attack runs the positive class. Throws when either
  /// class is empty.
  double auc(const std::string& detector,
             std::optional<attack::AttackVector> vector = std::nullopt,
             double min_fraction = 0.0) const;

  /// Full ROC curve over the detector's score set (same filters as auc).
  RocCurve roc(const std::string& detector,
               std::optional<attack::AttackVector> vector = std::nullopt,
               double min_fraction = 0.0) const;

  /// Detection latency (probe inferences until first flag) across the
  /// attack runs the detector flagged; throws when it flagged none.
  BoxStats detection_latency(const std::string& detector) const;
};

/// Rank-based (Mann-Whitney) AUC: P(attack score > clean score), ties
/// counting one half. Throws std::invalid_argument when either side is
/// empty.
double rank_auc(const std::vector<double>& clean_scores,
                const std::vector<double>& attack_scores);

}  // namespace safelight::core
