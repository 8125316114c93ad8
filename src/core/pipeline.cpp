#include "core/pipeline.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"

namespace safelight::core {

namespace {

/// One fan-out thread's private deployment of the swept variant.
struct SweepWorker {
  SweepWorker(std::unique_ptr<nn::Sequential> weights,
              const ExperimentSetup& setup, const std::string& variant,
              const attack::CorruptionConfig& corruption,
              std::shared_ptr<PrefixCache> prefix)
      : model(std::move(weights)),
        evaluator(setup, *model, variant, "", corruption, std::move(prefix)) {}

  std::unique_ptr<nn::Sequential> model;
  AttackEvaluator evaluator;
};

}  // namespace

std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count) {
  return scenario.id() + "/n" + std::to_string(eval_count);
}

std::string baseline_store_key(std::size_t eval_count) {
  return "baseline/n" + std::to_string(eval_count);
}

std::string sweep_store_stem(const std::string& cache_dir,
                             const ExperimentSetup& setup,
                             const std::string& variant_name,
                             const std::string& weights_checksum,
                             const attack::CorruptionConfig& corruption) {
  return cache_dir + "/" + setup.tag() + "_" + variant_name + "_" +
         weights_checksum + "_" + attack::config_fingerprint(corruption);
}

std::vector<double> SweepResult::accuracies() const {
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& row : rows) values.push_back(row.accuracy);
  return values;
}

BoxStats SweepResult::under_attack() const { return box_stats(accuracies()); }

ScenarioPipeline::ScenarioPipeline(const ExperimentSetup& setup, ModelZoo& zoo,
                                   PipelineOptions options)
    : setup_(setup), zoo_(zoo), options_(std::move(options)) {}

SweepResult ScenarioPipeline::run(
    const VariantSpec& variant,
    const std::vector<attack::AttackScenario>& grid) {
  const auto start = std::chrono::steady_clock::now();
  trace::Span sweep_span("pipeline", "pipeline.sweep");
  sweep_span.arg("variant", variant.name)
      .arg("grid", static_cast<double>(grid.size()));

  // Train (or load) on the calling thread so workers only ever load the
  // finished zoo entry — never race on training it.
  auto model = zoo_.get_or_train(setup_, variant, options_.verbose);
  const std::string checksum = weights_checksum(*model);

  std::string csv_path, jsonl_path;
  if (!options_.cache_dir.empty()) {
    std::filesystem::create_directories(options_.cache_dir);
    const std::string base =
        sweep_store_stem(options_.cache_dir, setup_, variant.name, checksum,
                         options_.corruption);
    csv_path = base + ".sweep.csv";
    if (options_.stream_jsonl) jsonl_path = base + ".sweep.jsonl";
  }
  ResultStore store(csv_path, jsonl_path);

  SweepResult result;
  result.variant = variant.name;

  // Baseline dedup: one clean evaluation serves every scenario of the sweep
  // (and, through the store, every future sweep of this variant).
  const std::string baseline_key = baseline_store_key(setup_.eval_count);
  if (const auto cached = store.lookup(baseline_key)) {
    result.baseline_accuracy = *cached;
    result.baseline_from_cache = true;
  } else {
    AttackEvaluator evaluator(setup_, *model, variant.name, "",
                              options_.corruption);
    result.baseline_accuracy = evaluator.baseline_accuracy();
    store.put(baseline_key, result.baseline_accuracy);
  }

  // Uncached scenarios, deduplicated: a grid may repeat an id, and a
  // previous interrupted run may have persisted a prefix.
  std::vector<attack::AttackScenario> pending;
  std::vector<std::string> pending_keys;
  std::unordered_set<std::string> fresh_keys;
  for (const auto& scenario : grid) {
    scenario.validate();
    const std::string key = scenario_store_key(scenario, setup_.eval_count);
    if (!store.contains(key) && fresh_keys.insert(key).second) {
      pending.push_back(scenario);
      pending_keys.push_back(key);
    }
  }
  result.evaluated = pending.size();

  // One clean-prefix cache per sweep: every thread's evaluator resumes from
  // it, and each boundary is built once, by whichever thread needs it first.
  const auto prefix = std::make_shared<PrefixCache>();
  parallel_claim<SweepWorker>(
      pending.size(), options_.max_workers,
      [&] {
        // Scenario evaluation corrupts and restores model weights, so
        // every thread needs a private copy (cheap: a zoo cache load).
        return std::make_unique<SweepWorker>(
            zoo_.get_or_train(setup_, variant, false), setup_, variant.name,
            options_.corruption, prefix);
      },
      [&](SweepWorker& worker, std::size_t i) {
        // Scenario boundaries are the pipeline's cancellation points:
        // everything already evaluated is persisted, so stopping here loses
        // no work. parallel_claim rethrows this on the caller.
        if (options_.cancel &&
            options_.cancel->load(std::memory_order_relaxed)) {
          throw ExperimentCancelled(setup_.tag());
        }
        trace::Span scenario_span("pipeline", "scenario.evaluate");
        if (scenario_span.active()) {
          scenario_span.arg("scenario", pending[i].id());
        }
        const double accuracy = worker.evaluator.evaluate_scenario(pending[i]);
        store.put(pending_keys[i], accuracy);
        if (options_.verbose) {
          std::printf("  [pipeline] %-36s acc %.4f\n",
                      pending[i].id().c_str(), accuracy);
          std::fflush(stdout);
        }
      });

  // Assemble in grid order: execution order never leaks into the result.
  result.rows.reserve(grid.size());
  for (const auto& scenario : grid) {
    const std::string key = scenario_store_key(scenario, setup_.eval_count);
    const auto value = store.lookup(key);
    SAFELIGHT_ASSERT(value.has_value(), "pipeline: result missing after sweep");
    ScenarioOutcome outcome;
    outcome.scenario = scenario;
    outcome.accuracy = *value;
    outcome.from_cache = fresh_keys.count(key) == 0;
    if (outcome.from_cache) ++result.cache_hits;
    result.rows.push_back(outcome);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

SweepResult ScenarioPipeline::run_paper_grid(const VariantSpec& variant,
                                             std::size_t seed_count,
                                             std::uint64_t base_seed) {
  return run(variant, attack::paper_scenario_grid(seed_count, base_seed));
}

}  // namespace safelight::core
