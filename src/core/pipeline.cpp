#include "core/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace safelight::core {

namespace {

/// Store key of a scenario: its stable id plus the evaluation subset size
/// (a larger eval_count is a different measurement).
std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count) {
  return scenario.id() + "/n" + std::to_string(eval_count);
}

/// Store key of the clean (unattacked) baseline evaluation.
std::string baseline_store_key(std::size_t eval_count) {
  return "baseline/n" + std::to_string(eval_count);
}

}  // namespace

std::vector<std::size_t> pending_cells(
    const std::vector<SweepCell>& cells,
    const std::function<bool(const std::string&)>& stored) {
  std::vector<std::size_t> pending;
  std::unordered_set<std::string> seen;
  std::unordered_map<std::string, const std::string*> owner;  // key -> id
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const std::string& key : cells[i].keys) {
      const auto [it, first] = owner.emplace(key, &cells[i].id);
      SAFELIGHT_ASSERT(first || *it->second == cells[i].id,
                       "sweep: key '" + key + "' is listed by cells '" +
                           *it->second + "' and '" + cells[i].id + "'");
    }
    if (!seen.insert(cells[i].id).second) continue;
    if (!std::all_of(cells[i].keys.begin(), cells[i].keys.end(), stored)) {
      pending.push_back(i);
    }
  }
  return pending;
}

Deployment::Deployment(const ExperimentSpec& spec,
                       const ExperimentSetup& setup, const CellSweep& sweep,
                       std::unique_ptr<nn::Sequential> weights,
                       std::shared_ptr<PrefixCache> prefix)
    : model(std::move(weights)),
      evaluator(setup, *model, sweep.variant.name, "", spec.corruption,
                std::move(prefix)) {
  if (!sweep.detectors) return;
  suite.emplace(setup, spec.suite);
  suite->calibrate({*model, evaluator.executor(), nullptr,
                    seed_combine(spec.base_seed, 0xCA11B)});
}

std::string weights_checksum(nn::Sequential& model) {
  Fingerprint fp;
  for (nn::Param* p : model.params()) {
    fp.mix_bytes(p->value.data(), p->value.numel() * sizeof(float));
  }
  return fp.hex16();
}

std::string sweep_store_name(const ExperimentSetup& setup,
                             const attack::CorruptionConfig& corruption,
                             const CellSweep& sweep,
                             const std::string& weights_checksum) {
  return setup.tag() + "_" + sweep.variant.name + "_" + weights_checksum +
         "_" + attack::config_fingerprint(corruption) + sweep.store_suffix;
}

std::vector<SweptCell> sweep_cells(const ExperimentSpec& spec,
                                   const RunContext& context,
                                   const CellSweep& sweep) {
  // Detector sweeps run no scenario.evaluate spans, so they get their own
  // name and pipeline.sweep stays the denominator of the scenario busy
  // ratio.
  trace::Span sweep_span(sweep.detectors ? "defense" : "pipeline",
                         sweep.detectors ? "defense.sweep" : "pipeline.sweep");
  if (sweep_span.active()) {
    sweep_span.arg("variant", sweep.variant.name)
        .arg("cells", static_cast<double>(sweep.cells.size()));
  }
  const ExperimentSetup setup = spec.resolved_setup();
  ModelZoo& zoo = context.zoo();

  // Train (or load) on the calling thread so workers only ever load the
  // finished zoo entry — never race on training it.
  const std::string checksum = weights_checksum(
      *zoo.get_or_train(setup, sweep.variant, spec.verbose));
  std::string store_path;
  if (!spec.cache_dir.empty()) {
    std::filesystem::create_directories(spec.cache_dir);
    store_path = spec.cache_dir + "/" +
                 sweep_store_name(setup, spec.corruption, sweep, checksum);
  }
  ResultStore store(store_path);

  const std::vector<SweepCell>& cells = sweep.cells;
  const std::vector<std::size_t> pending = pending_cells(
      cells, [&](const std::string& key) { return store.contains(key); });
  // One clean-prefix cache per run, shared by its deployments: each
  // boundary is built once, by whichever thread needs it first.
  const auto prefix = std::make_shared<PrefixCache>();
  parallel_claim<Deployment>(
      pending.size(), spec.max_workers,
      // Evaluation corrupts and restores model weights, so every thread
      // deploys a private copy (cheap: a zoo cache load).
      [&] {
        return std::make_unique<Deployment>(
            spec, setup, sweep, zoo.get_or_train(setup, sweep.variant, false),
            prefix);
      },
      [&](Deployment& deployment, std::size_t p) {
        // Cell boundaries are the cancellation points: everything already
        // evaluated is persisted, so stopping here loses no work.
        // parallel_claim rethrows this on the caller.
        context.throw_if_cancelled(spec.experiment);
        sweep.evaluate(deployment, pending[p], store);
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

CellSweep scenario_sweep(const ExperimentSpec& spec,
                         const ExperimentSetup& setup,
                         const VariantSpec& variant,
                         std::vector<attack::AttackScenario> grid) {
  std::vector<SweepCell> cells;
  cells.reserve(grid.size() + 1);
  cells.push_back({"baseline", {baseline_store_key(setup.eval_count)}});
  for (const auto& scenario : grid) {
    scenario.validate();
    cells.push_back(
        {scenario.id(), {scenario_store_key(scenario, setup.eval_count)}});
  }

  auto shared_grid =
      std::make_shared<const std::vector<attack::AttackScenario>>(
          std::move(grid));
  return {variant, ".sweep.csv", std::move(cells), /*detectors=*/false,
          [eval_count = setup.eval_count, grid = std::move(shared_grid),
           verbose = spec.verbose](Deployment& deployment, std::size_t i,
                                   ResultStore& store) {
            trace::Span scenario_span("pipeline", "scenario.evaluate");
            // Cell 0 is the clean baseline, shared by every scenario of the
            // sweep (and, through the store, by every future sweep).
            if (i == 0) {
              if (scenario_span.active()) {
                scenario_span.arg("scenario", "baseline");
              }
              store.put(baseline_store_key(eval_count),
                        deployment.evaluator.baseline_accuracy());
              return;
            }
            const attack::AttackScenario& scenario = (*grid)[i - 1];
            const std::string id = scenario.id();
            if (scenario_span.active()) scenario_span.arg("scenario", id);
            const double accuracy =
                deployment.evaluator.evaluate_scenario(scenario);
            store.put(scenario_store_key(scenario, eval_count), accuracy);
            if (verbose) {
              std::printf("  [pipeline] %-36s acc %.4f\n", id.c_str(),
                          accuracy);
              std::fflush(stdout);
            }
          }};
}

std::vector<double> scenario_accuracies(const std::vector<SweptCell>& swept) {
  std::vector<double> accuracies;
  accuracies.reserve(swept.size() - 1);
  for (std::size_t i = 1; i < swept.size(); ++i) {
    accuracies.push_back(swept[i].values[0]);
  }
  return accuracies;
}

}  // namespace safelight::core
