#include "core/detection.hpp"

#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

/// One deployment to check: a clean run or an attack scenario.
struct RunSpec {
  std::string id;
  bool clean = false;
  attack::AttackScenario scenario{};
};

/// Store key of one (run, detector) field.
std::string run_key(const std::string& run_id, const std::string& detector,
                    const char* field) {
  return run_id + "/" + detector + "/" + field;
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

/// The runs of a detection sweep: clean deployments first, then the
/// attack grid in grid order. Each run is one cell.
std::vector<RunSpec> detection_runs(const ExperimentSpec& spec) {
  const std::vector<attack::AttackScenario> grid =
      spec.grid ? *spec.grid
                : attack::paper_scenario_grid(spec.seed_count, spec.base_seed);
  std::vector<RunSpec> runs;
  runs.reserve(spec.clean_runs + grid.size());
  for (std::size_t k = 0; k < spec.clean_runs; ++k) {
    runs.push_back({"clean/c" + std::to_string(k) + "/b" +
                        std::to_string(spec.base_seed),
                    true,
                    {}});
  }
  for (const attack::AttackScenario& scenario : grid) {
    scenario.validate();
    runs.push_back({scenario.id(), false, scenario});
  }
  return runs;
}

/// Evaluates the cell of `run`: checks every detector against the run's
/// deployment — clean, or compromised by the scenario with its thermal
/// telemetry — and stores (score, probes, latency) per detector.
void check_run(Deployment& deployment, const RunSpec& run,
               const attack::CorruptionConfig& corruption, bool verbose,
               ResultStore& store) {
  static metrics::Counter& checks = metrics::counter("detect.checks");
  checks.add();
  trace::Span run_span("detect", "detect.run");
  if (run_span.active()) {
    run_span.arg("run", run.id).arg("clean", static_cast<double>(run.clean));
  }
  AttackEvaluator& evaluator = deployment.evaluator;
  std::vector<attack::BlockThermalState> telemetry;
  if (run.clean) {
    evaluator.restore_clean();
  } else {
    evaluator.apply_scenario(run.scenario);
    telemetry = defense::scenario_telemetry(evaluator.setup().accelerator,
                                            run.scenario, corruption);
  }
  const defense::DeploymentView view{
      *deployment.model, evaluator.executor(),
      telemetry.empty() ? nullptr : &telemetry,
      defense::probe_seed_of(run.id)};
  const std::vector<defense::DetectionResult> results =
      deployment.suite->check_all(view);
  evaluator.restore_clean();

  std::vector<std::pair<std::string, double>> rows;
  for (const defense::DetectionResult& r : results) {
    // Detection latency (probes until first flag) per detector; clean
    // runs are excluded — a clean flag is a false positive, not a
    // latency sample.
    if (metrics::armed() && !run.clean && r.flagged) {
      metrics::histogram("detect.latency_probes." + r.detector)
          .record(static_cast<double>(r.first_flag_probe));
    }
    rows.emplace_back(run_key(run.id, r.detector, "score"), r.score);
    rows.emplace_back(run_key(run.id, r.detector, "probes"),
                      static_cast<double>(r.probes));
    rows.emplace_back(run_key(run.id, r.detector, "latency"),
                      static_cast<double>(r.first_flag_probe));
    if (verbose) {
      std::printf("  [detect] %-32s %-16s score %.4f%s\n", run.id.c_str(),
                  r.detector.c_str(), r.score, r.flagged ? "  FLAGGED" : "");
      std::fflush(stdout);
    }
  }
  store.put(rows);
}

}  // namespace

std::vector<CellSweep> detection_sweeps(const ExperimentSpec& spec) {
  const ExperimentSetup setup = spec.resolved_setup();
  const std::vector<std::string> detector_names =
      defense::DetectorSuite(setup, spec.suite).names();
  auto runs =
      std::make_shared<const std::vector<RunSpec>>(detection_runs(spec));
  // Each run fills (score, probes, latency) per detector.
  std::vector<SweepCell> cells;
  cells.reserve(runs->size());
  for (const RunSpec& run : *runs) {
    SweepCell cell{run.id, {}};
    for (const std::string& name : detector_names) {
      cell.keys.push_back(run_key(run.id, name, "score"));
      cell.keys.push_back(run_key(run.id, name, "probes"));
      cell.keys.push_back(run_key(run.id, name, "latency"));
    }
    cells.push_back(std::move(cell));
  }

  std::string suffix = "_";  // "_" + fp trips a GCC 12 -Wrestrict bug
  suffix += defense::config_fingerprint(spec.suite) + ".detect.csv";
  return {{spec.resolved_variant(), suffix, std::move(cells),
           /*detectors=*/true,
           [runs, corruption = spec.corruption, verbose = spec.verbose](
               Deployment& deployment, std::size_t i, ResultStore& store) {
             check_run(deployment, (*runs)[i], corruption, verbose, store);
           }}};
}

ExperimentResult::Payload assemble_detection(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept_sweeps) {
  const ExperimentSetup setup = spec.resolved_setup();
  // The reference suite provides detector names and default thresholds for
  // report assembly; each deployment calibrates its own identical copy.
  defense::DetectorSuite reference(setup, spec.suite);
  const std::vector<std::string> detector_names = reference.names();
  const std::vector<RunSpec> runs = detection_runs(spec);
  const std::vector<SweptCell>& swept = swept_sweeps.at(0);

  DetectionReport report;
  report.variant = sweeps.at(0).variant.name;
  report.detectors = detector_names;
  report.clean_runs = spec.clean_runs;
  report.rows.reserve(runs.size() * detector_names.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSpec& run = runs[i];
    if (swept[i].fresh) {
      ++report.evaluated;
    } else {
      ++report.cache_hits;
    }
    for (std::size_t d = 0; d < detector_names.size(); ++d) {
      // The cell's keys run (score, probes, latency) per detector.
      const double* values = &swept[i].values[3 * d];
      DetectionRow row;
      row.run_id = run.id;
      row.clean = run.clean;
      row.scenario = run.scenario;
      row.detector = detector_names[d];
      row.score = values[0];
      row.flagged = values[0] > reference.detector(row.detector).threshold();
      row.probes = static_cast<std::size_t>(std::llround(values[1]));
      row.first_flag_probe = static_cast<std::size_t>(std::llround(values[2]));
      row.from_cache = !swept[i].fresh;
      report.rows.push_back(std::move(row));
    }
  }

  return report;
}

}  // namespace safelight::core
