#include "core/detection.hpp"

#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/evaluation.hpp"
#include "core/result_store.hpp"
#include "nn/serialize.hpp"

namespace safelight::core {

namespace {

/// One deployment to check: a clean run or an attack scenario.
struct RunSpec {
  std::string id;
  bool clean = false;
  attack::AttackScenario scenario{};
  std::uint64_t probe_seed = 0;
};

/// Per-thread detection engine: one private conditioned deployment, one
/// calibrated suite, checked against many runs. Calibration is
/// deterministic in (setup, weights, suite config, base_seed), so every
/// thread's suite is identical and results never depend on which thread
/// checked which run.
class DetectionEvaluator {
 public:
  /// `spec` must outlive the evaluator; it supplies the suite config,
  /// calibration seed and corruption physics.
  DetectionEvaluator(const ExperimentSetup& setup,
                     std::unique_ptr<nn::Sequential> model,
                     const ExperimentSpec& spec)
      : setup_(setup),
        model_(std::move(model)),
        executor_(setup.accelerator),
        mapping_(executor_.condition_weights(*model_), setup.accelerator),
        clean_snapshot_(nn::snapshot_state(*model_)),
        suite_(setup, spec.suite),
        spec_(spec) {
    const defense::DeploymentView clean{
        *model_, executor_, nullptr, seed_combine(spec_.base_seed, 0xCA11B)};
    suite_.calibrate(clean);
  }

  /// Checks every detector against one run; results in suite order.
  std::vector<defense::DetectionResult> run(const RunSpec& spec) {
    nn::restore_state(*model_, clean_snapshot_);
    std::vector<attack::BlockThermalState> telemetry;
    if (!spec.clean) {
      attack::apply_attack(mapping_, spec.scenario, spec_.corruption);
      telemetry = defense::scenario_telemetry(
          setup_.accelerator, spec.scenario, spec_.corruption);
    }
    const defense::DeploymentView view{
        *model_, executor_, telemetry.empty() ? nullptr : &telemetry,
        spec.probe_seed};
    std::vector<defense::DetectionResult> results = suite_.check_all(view);
    nn::restore_state(*model_, clean_snapshot_);
    return results;
  }

 private:
  ExperimentSetup setup_;
  std::unique_ptr<nn::Sequential> model_;
  accel::OnnExecutor executor_;
  accel::WeightStationaryMapping mapping_;
  std::vector<nn::Tensor> clean_snapshot_;
  defense::DetectorSuite suite_;
  const ExperimentSpec& spec_;
};

/// Probe seed of a run, derived from its full id so every run — including
/// same-placement scenarios at different intensities — reads independent
/// sensor noise, and so a cached score is a pure function of the run id.
std::uint64_t probe_seed_of(const std::string& run_id) {
  Fingerprint fp;
  fp.mix_bytes(run_id.data(), run_id.size());
  return splitmix64(fp.value());
}

std::string score_key(const RunSpec& spec, const std::string& detector) {
  return spec.id + "/" + detector + "/score";
}
std::string probes_key(const RunSpec& spec, const std::string& detector) {
  return spec.id + "/" + detector + "/probes";
}
std::string latency_key(const RunSpec& spec, const std::string& detector) {
  return spec.id + "/" + detector + "/latency";
}

}  // namespace

std::vector<double> DetectionReport::clean_scores(
    const std::string& detector) const {
  std::vector<double> out;
  for (const DetectionRow& row : rows) {
    if (row.clean && row.detector == detector) out.push_back(row.score);
  }
  return out;
}

std::vector<double> DetectionReport::attack_scores(
    const std::string& detector, std::optional<attack::AttackVector> vector,
    double min_fraction) const {
  std::vector<double> out;
  for (const DetectionRow& row : rows) {
    if (row.clean || row.detector != detector) continue;
    if (vector.has_value() && row.scenario.vector != *vector) continue;
    if (row.scenario.fraction < min_fraction - 1e-12) continue;
    out.push_back(row.score);
  }
  return out;
}

double DetectionReport::false_positive_rate(
    const std::string& detector) const {
  std::size_t total = 0;
  std::size_t flagged = 0;
  for (const DetectionRow& row : rows) {
    if (!row.clean || row.detector != detector) continue;
    ++total;
    if (row.flagged) ++flagged;
  }
  require(total > 0, "DetectionReport: no clean runs for '" + detector + "'");
  return static_cast<double>(flagged) / static_cast<double>(total);
}

double DetectionReport::true_positive_rate(
    const std::string& detector, std::optional<attack::AttackVector> vector,
    double min_fraction) const {
  std::size_t total = 0;
  std::size_t flagged = 0;
  for (const DetectionRow& row : rows) {
    if (row.clean || row.detector != detector) continue;
    if (vector.has_value() && row.scenario.vector != *vector) continue;
    if (row.scenario.fraction < min_fraction - 1e-12) continue;
    ++total;
    if (row.flagged) ++flagged;
  }
  require(total > 0,
          "DetectionReport: no attack runs match the filter for '" +
              detector + "'");
  return static_cast<double>(flagged) / static_cast<double>(total);
}

double DetectionReport::auc(const std::string& detector,
                            std::optional<attack::AttackVector> vector,
                            double min_fraction) const {
  return rank_auc(clean_scores(detector),
                  attack_scores(detector, vector, min_fraction));
}

RocCurve DetectionReport::roc(const std::string& detector,
                              std::optional<attack::AttackVector> vector,
                              double min_fraction) const {
  const std::vector<double> clean = clean_scores(detector);
  const std::vector<double> attack =
      attack_scores(detector, vector, min_fraction);
  require(!clean.empty() && !attack.empty(),
          "DetectionReport: ROC needs both clean and attack runs");

  // Operating points at every distinct observed score (descending), so the
  // curve starts at "flag nothing" and a final below-minimum threshold
  // closes it at "flag everything" = (1, 1).
  std::set<double> distinct(clean.begin(), clean.end());
  distinct.insert(attack.begin(), attack.end());
  std::vector<double> thresholds(distinct.rbegin(), distinct.rend());
  thresholds.push_back(*distinct.begin() - 1.0);

  const auto flagged_fraction = [](const std::vector<double>& scores,
                                   double threshold) {
    std::size_t flagged = 0;
    for (double s : scores) {
      if (s > threshold) ++flagged;
    }
    return static_cast<double>(flagged) / static_cast<double>(scores.size());
  };

  RocCurve curve;
  curve.detector = detector;
  curve.points.reserve(thresholds.size());
  for (double t : thresholds) {
    curve.points.push_back(
        {t, flagged_fraction(attack, t), flagged_fraction(clean, t)});
  }
  curve.auc = rank_auc(clean, attack);
  return curve;
}

BoxStats DetectionReport::detection_latency(
    const std::string& detector) const {
  std::vector<double> latencies;
  for (const DetectionRow& row : rows) {
    if (row.clean || row.detector != detector || !row.flagged) continue;
    latencies.push_back(static_cast<double>(row.first_flag_probe));
  }
  require(!latencies.empty(),
          "DetectionReport: '" + detector + "' flagged no attack run");
  return box_stats(latencies);
}

double rank_auc(const std::vector<double>& clean_scores,
                const std::vector<double>& attack_scores) {
  require(!clean_scores.empty() && !attack_scores.empty(),
          "rank_auc: need scores of both classes");
  double wins = 0.0;
  for (double a : attack_scores) {
    for (double c : clean_scores) {
      if (a > c) {
        wins += 1.0;
      } else if (a == c) {
        wins += 0.5;
      }
    }
  }
  return wins / (static_cast<double>(clean_scores.size()) *
                 static_cast<double>(attack_scores.size()));
}

namespace {

/// The sweep proper, in the unified-API shape: spec in, typed report out.
DetectionReport detection_impl(const ExperimentSpec& spec,
                               RunContext& context) {
  const ExperimentSetup setup = spec.resolved_setup();
  ModelZoo& zoo = context.zoo();
  const VariantSpec variant = spec.resolved_variant();
  const std::vector<attack::AttackScenario> grid =
      spec.grid ? *spec.grid
                : attack::paper_scenario_grid(spec.seed_count, spec.base_seed);
  context.note("detection: sweep " + setup.tag() + " / " + variant.name);

  const auto start = std::chrono::steady_clock::now();

  // Train (or load) on the calling thread; workers only load cache entries.
  const std::string checksum =
      weights_checksum(*zoo.get_or_train(setup, variant, spec.verbose));

  // The reference suite provides detector names and default thresholds for
  // report assembly; workers calibrate their own identical copies.
  defense::DetectorSuite reference(setup, spec.suite);
  const std::vector<std::string> detector_names = reference.names();

  std::string csv_path;
  if (!spec.cache_dir.empty()) {
    std::filesystem::create_directories(spec.cache_dir);
    csv_path = spec.cache_dir + "/" + setup.tag() + "_" + variant.name + "_" +
               checksum + "_" + attack::config_fingerprint(spec.corruption) +
               "_" + defense::config_fingerprint(spec.suite) + ".detect.csv";
  }
  ResultStore store(csv_path);

  // Run list: clean deployments first (probe seeds derived from base_seed),
  // then the attack grid in grid order.
  std::vector<RunSpec> runs;
  runs.reserve(spec.clean_runs + grid.size());
  for (std::size_t k = 0; k < spec.clean_runs; ++k) {
    RunSpec run;
    run.id =
        "clean/c" + std::to_string(k) + "/b" + std::to_string(spec.base_seed);
    run.clean = true;
    run.probe_seed = probe_seed_of(run.id);
    runs.push_back(run);
  }
  for (const attack::AttackScenario& scenario : grid) {
    scenario.validate();
    RunSpec run;
    run.id = scenario.id();
    run.scenario = scenario;
    run.probe_seed = probe_seed_of(run.id);
    runs.push_back(run);
  }

  // Uncached runs, deduplicated (a grid may repeat an id; a previous
  // interrupted sweep may have persisted a prefix). A run only counts as
  // cached when *every* one of its keys made it to disk — an interrupt can
  // land between the per-detector flushes, and a partially stored run must
  // re-check rather than crash report assembly on the missing keys.
  const auto fully_stored = [&](const RunSpec& run) {
    for (const std::string& name : detector_names) {
      if (!store.contains(score_key(run, name)) ||
          !store.contains(probes_key(run, name)) ||
          !store.contains(latency_key(run, name))) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::size_t> pending;
  std::set<std::string> fresh_ids;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!fully_stored(runs[i]) && fresh_ids.insert(runs[i].id).second) {
      pending.push_back(i);
    }
  }

  parallel_claim<DetectionEvaluator>(
      pending.size(), spec.max_workers,
      [&] {
        // Checks corrupt and restore model weights, so every thread deploys
        // a private copy (a zoo cache load).
        return std::make_unique<DetectionEvaluator>(
            setup, zoo.get_or_train(setup, variant, false), spec);
      },
      [&](DetectionEvaluator& evaluator, std::size_t p) {
        const RunSpec& run = runs[pending[p]];
        static metrics::Counter& checks = metrics::counter("detect.checks");
        checks.add();
        trace::Span run_span("detect", "detect.run");
        if (run_span.active()) {
          run_span.arg("run", run.id)
              .arg("clean", static_cast<double>(run.clean));
        }
        const std::vector<defense::DetectionResult> results =
            evaluator.run(run);
        for (const defense::DetectionResult& r : results) {
          // Detection latency (probes until first flag) per detector; clean
          // runs are excluded — a clean flag is a false positive, not a
          // latency sample.
          if (metrics::armed() && !run.clean && r.flagged) {
            metrics::histogram("detect.latency_probes." + r.detector)
                .record(static_cast<double>(r.first_flag_probe));
          }
          store.put(score_key(run, r.detector), r.score);
          store.put(probes_key(run, r.detector),
                    static_cast<double>(r.probes));
          store.put(latency_key(run, r.detector),
                    static_cast<double>(r.first_flag_probe));
          if (spec.verbose) {
            std::printf("  [detect] %-32s %-16s score %.4f%s\n",
                        run.id.c_str(), r.detector.c_str(), r.score,
                        r.flagged ? "  FLAGGED" : "");
            std::fflush(stdout);
          }
        }
      });

  // Assemble in run order; execution order never leaks into the report.
  DetectionReport report;
  report.variant = variant.name;
  report.detectors = detector_names;
  report.clean_runs = spec.clean_runs;
  report.evaluated = pending.size();
  report.rows.reserve(runs.size() * detector_names.size());
  for (const RunSpec& run : runs) {
    const bool fresh = fresh_ids.count(run.id) != 0;
    if (!fresh) ++report.cache_hits;
    for (const std::string& name : detector_names) {
      const auto score = store.lookup(score_key(run, name));
      const auto probes = store.lookup(probes_key(run, name));
      const auto latency = store.lookup(latency_key(run, name));
      SAFELIGHT_ASSERT(score && probes && latency,
                       "detection sweep: result missing after fan-out");
      DetectionRow row;
      row.run_id = run.id;
      row.clean = run.clean;
      row.scenario = run.scenario;
      row.detector = name;
      row.score = *score;
      row.flagged = *score > reference.detector(name).threshold();
      row.probes = static_cast<std::size_t>(std::llround(*probes));
      row.first_flag_probe = static_cast<std::size_t>(std::llround(*latency));
      row.from_cache = !fresh;
      report.rows.push_back(std::move(row));
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace

ExperimentResult run_detection_experiment(const ExperimentSpec& spec,
                                          RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  ExperimentResult result;
  result.payload = detection_impl(spec, context);
  return result;
}

}  // namespace safelight::core
