// Parallel scenario-sweep engine (the experiment pipeline).
//
// Every figure/table reproduction boils down to the same shape of work:
// "evaluate one trained model variant under a grid of attack scenarios".
// ScenarioPipeline owns that shape once, for all of them:
//   * the variant is trained (or loaded) through the ModelZoo exactly once;
//   * the clean-baseline evaluation shared by every scenario of a sweep is
//     computed once and cached, never per scenario;
//   * uncached scenarios fan out over safelight::parallel_claim: threads
//     claim scenarios one at a time, each with a private model copy +
//     AttackEvaluator (scenario evaluation mutates model weights, so threads
//     must not share a model);
//   * those evaluators share one PrefixCache per sweep, so the clean
//     activations at each first-dirty boundary are built once per sweep;
//   * each finished scenario is appended to a ResultStore immediately, so
//     an interrupted sweep resumes from the completed prefix.
// Results are returned in grid order regardless of the execution order, so
// a sweep's output is deterministic in (setup, variant, grid) and identical
// between serial and parallel runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "attacks/corruption.hpp"
#include "attacks/scenario.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/zoo.hpp"

namespace safelight::core {

/// Knobs of a pipeline instance; shared by every sweep it runs.
struct PipelineOptions {
  /// Directory for ResultStore files; empty disables persistence (results
  /// are still deduplicated in memory within one sweep).
  std::string cache_dir;
  /// Also stream each new result as a JSON object to a .jsonl file next to
  /// the CSV store (ignored when cache_dir is empty).
  bool stream_jsonl = false;
  /// Upper bound on worker threads; 0 uses safelight::worker_count()
  /// (SAFELIGHT_THREADS). 1 forces the serial reference path.
  std::size_t max_workers = 0;
  bool verbose = false;
  /// Corruption physics shared by all scenarios of a sweep. Non-default
  /// configs get their own result-store files (the config is part of the
  /// store fingerprint), so ablation sweeps never poison the paper-grid
  /// cache.
  attack::CorruptionConfig corruption{};
  /// Cooperative-cancellation flag, checked between scenario evaluations.
  /// When it flips to true the sweep stops at the next scenario boundary by
  /// throwing ExperimentCancelled — everything evaluated so far is already
  /// in the ResultStore, so a rerun resumes from the completed prefix.
  const std::atomic<bool>* cancel = nullptr;
};

/// One evaluated grid entry.
struct ScenarioOutcome {
  attack::AttackScenario scenario;
  double accuracy = 0.0;
  /// True when the value came from a previous run's result store rather
  /// than an evaluation in this sweep.
  bool from_cache = false;
};

/// Outcome of one ScenarioPipeline::run call.
struct SweepResult {
  std::string variant;
  double baseline_accuracy = 0.0;  // unattacked accuracy, evaluated once
  bool baseline_from_cache = false;
  std::vector<ScenarioOutcome> rows;  // in grid order
  std::size_t cache_hits = 0;  // rows served from the result store
  std::size_t evaluated = 0;   // scenarios actually evaluated this run
  double wall_seconds = 0.0;   // time spent inside run()

  /// Accuracies in grid order.
  std::vector<double> accuracies() const;

  /// Five-number summary over all rows; throws when the sweep is empty.
  BoxStats under_attack() const;
};

/// Store key of a scenario: its stable id plus the evaluation subset size
/// (a larger eval_count is a different measurement). Shared by the pipeline
/// and the distributed planner — the coordinator decides "already cached?"
/// with exactly the key the pipeline will later look up.
std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count);

/// Store key of the clean (unattacked) baseline evaluation.
std::string baseline_store_key(std::size_t eval_count);

/// Path (without extension) of the ResultStore files a pipeline sweep of
/// `variant` uses under `cache_dir`: the CSV store is `<stem>.sweep.csv`,
/// the optional mirror `<stem>.sweep.jsonl`. `weights_checksum` is the
/// trained variant's checksum — part of the name so retrained weights never
/// read stale entries; `corruption` likewise fingerprints ablated physics.
std::string sweep_store_stem(const std::string& cache_dir,
                             const ExperimentSetup& setup,
                             const std::string& variant_name,
                             const std::string& weights_checksum,
                             const attack::CorruptionConfig& corruption);

/// Fans scenario evaluations for one ExperimentSetup out over worker
/// threads, with persistent per-scenario result caching, clean-baseline
/// deduplication and one shared clean-prefix cache per sweep. One instance can run many sweeps (different variants
/// and/or grids); they share options but not state.
class ScenarioPipeline {
 public:
  ScenarioPipeline(const ExperimentSetup& setup, ModelZoo& zoo,
                   PipelineOptions options = {});

  /// Evaluates `variant` under every scenario in `grid`. Trains/loads the
  /// variant via the zoo, dedupes the baseline, evaluates uncached
  /// scenarios in parallel and returns results in grid order.
  SweepResult run(const VariantSpec& variant,
                  const std::vector<attack::AttackScenario>& grid);

  /// Convenience: the paper's full SIV grid (2 vectors x 3 targets x
  /// {1,5,10} % x seed_count placements).
  SweepResult run_paper_grid(const VariantSpec& variant,
                             std::size_t seed_count,
                             std::uint64_t base_seed = 1000);

  const ExperimentSetup& setup() const { return setup_; }
  const PipelineOptions& options() const { return options_; }

 private:
  ExperimentSetup setup_;
  ModelZoo& zoo_;
  PipelineOptions options_;
};

}  // namespace safelight::core
