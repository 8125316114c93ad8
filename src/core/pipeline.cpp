#include "core/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

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

std::vector<std::size_t> pending_cells(
    const std::vector<SweepCell>& cells,
    const std::function<bool(const std::string&)>& stored) {
  std::vector<std::size_t> pending;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!seen.insert(cells[i].id).second) continue;
    if (!std::all_of(cells[i].keys.begin(), cells[i].keys.end(), stored)) {
      pending.push_back(i);
    }
  }
  return pending;
}

std::string sweep_store_stem(const std::string& cache_dir,
                             const ExperimentSetup& setup,
                             const std::string& variant_name,
                             const std::string& weights_checksum,
                             const attack::CorruptionConfig& corruption) {
  return cache_dir + "/" + setup.tag() + "_" + variant_name + "_" +
         weights_checksum + "_" + attack::config_fingerprint(corruption);
}

std::vector<SweptCell> detail::sweep_cells(
    const ExperimentSpec& spec, const RunContext& context,
    const VariantSpec& variant, const std::string& store_suffix,
    const std::vector<SweepCell>& cells,
    const std::function<std::shared_ptr<void>(std::unique_ptr<nn::Sequential>)>&
        make_worker,
    const std::function<void(void*, std::size_t, ResultStore&)>& evaluate) {
  const ExperimentSetup setup = spec.resolved_setup();
  ModelZoo& zoo = context.zoo();

  // Train (or load) on the calling thread so workers only ever load the
  // finished zoo entry — never race on training it.
  const std::string checksum =
      weights_checksum(*zoo.get_or_train(setup, variant, spec.verbose));
  std::string store_path;
  if (!spec.cache_dir.empty()) {
    std::filesystem::create_directories(spec.cache_dir);
    store_path = sweep_store_stem(spec.cache_dir, setup, variant.name,
                                  checksum, spec.corruption) +
                 store_suffix;
  }
  ResultStore store(store_path);

  const std::vector<std::size_t> pending = pending_cells(
      cells, [&](const std::string& key) { return store.contains(key); });
  safelight::detail::parallel_claim(
      pending.size(), spec.max_workers,
      // Evaluation corrupts and restores model weights, so every thread
      // deploys a private copy (cheap: a zoo cache load).
      [&] { return make_worker(zoo.get_or_train(setup, variant, false)); },
      [&](void* worker, std::size_t p) {
        // Cell boundaries are the cancellation points: everything already
        // evaluated is persisted, so stopping here loses no work.
        // parallel_claim rethrows this on the caller.
        context.throw_if_cancelled(spec.experiment);
        evaluate(worker, pending[p], store);
      });

  // Assemble in declaration order: execution order never leaks out.
  std::vector<SweptCell> swept(cells.size());
  for (const std::size_t i : pending) swept[i].fresh = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const std::string& key : cells[i].keys) {
      const auto value = store.lookup(key);
      SAFELIGHT_ASSERT(value.has_value(), "sweep: cell '" + cells[i].id +
                                              "' missing '" + key +
                                              "' after fan-out");
      swept[i].values.push_back(*value);
    }
  }
  return swept;
}

std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count) {
  return scenario.id() + "/n" + std::to_string(eval_count);
}

std::string baseline_store_key(std::size_t eval_count) {
  return "baseline/n" + std::to_string(eval_count);
}

std::vector<SweepCell> scenario_cells(
    const std::vector<attack::AttackScenario>& grid, std::size_t eval_count) {
  std::vector<SweepCell> cells;
  cells.reserve(grid.size() + 1);
  cells.push_back({"baseline", {baseline_store_key(eval_count)}});
  for (const auto& scenario : grid) {
    scenario.validate();
    cells.push_back(
        {scenario.id(), {scenario_store_key(scenario, eval_count)}});
  }
  return cells;
}

std::vector<double> SweepResult::accuracies() const {
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& row : rows) values.push_back(row.accuracy);
  return values;
}

BoxStats SweepResult::under_attack() const { return box_stats(accuracies()); }

SweepResult sweep_variant(const ExperimentSpec& spec,
                          const RunContext& context,
                          const VariantSpec& variant,
                          const std::vector<attack::AttackScenario>& grid) {
  trace::Span sweep_span("pipeline", "pipeline.sweep");
  sweep_span.arg("variant", variant.name)
      .arg("grid", static_cast<double>(grid.size()));
  const ExperimentSetup setup = spec.resolved_setup();
  const std::vector<SweepCell> cells = scenario_cells(grid, setup.eval_count);

  // One clean-prefix cache per sweep: every thread's evaluator resumes from
  // it, and each boundary is built once, by whichever thread needs it first.
  const auto prefix = std::make_shared<PrefixCache>();
  const std::vector<SweptCell> swept = sweep_cells<SweepWorker>(
      spec, context, variant, ".sweep.csv", cells,
      [&](std::unique_ptr<nn::Sequential> model) {
        return std::make_unique<SweepWorker>(std::move(model), setup,
                                             variant.name, spec.corruption,
                                             prefix);
      },
      [&](SweepWorker& worker, std::size_t i, ResultStore& store) {
        trace::Span scenario_span("pipeline", "scenario.evaluate");
        if (scenario_span.active()) scenario_span.arg("scenario", cells[i].id);
        // Cell 0 is the clean baseline, shared by every scenario of the
        // sweep (and, through the store, by every future sweep).
        if (i == 0) {
          store.put(cells[0].keys[0], worker.evaluator.baseline_accuracy());
          return;
        }
        const double accuracy =
            worker.evaluator.evaluate_scenario(grid[i - 1]);
        store.put(cells[i].keys[0], accuracy);
        if (spec.verbose) {
          std::printf("  [pipeline] %-36s acc %.4f\n", cells[i].id.c_str(),
                      accuracy);
          std::fflush(stdout);
        }
      });

  SweepResult result;
  result.variant = variant.name;
  result.baseline_accuracy = swept[0].values[0];
  result.baseline_from_cache = !swept[0].fresh;
  result.rows.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SweptCell& cell = swept[i + 1];
    result.rows.push_back({grid[i], cell.values[0], !cell.fresh});
    if (cell.fresh) {
      ++result.evaluated;
    } else {
      ++result.cache_hits;
    }
  }
  return result;
}

}  // namespace safelight::core
