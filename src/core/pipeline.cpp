#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/metrics.hpp"
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

std::vector<std::pair<std::string, double>> evaluate_cell_rows(
    const CellSweep& sweep, Deployment& deployment, std::size_t i) {
  ResultStore staging("");
  sweep.evaluate(deployment, i, staging);
  std::vector<std::pair<std::string, double>> rows;
  for (const std::string& key : sweep.cells[i].keys) {
    const auto value = staging.lookup(key);
    if (!value) {
      throw std::runtime_error("sweep: cell '" + sweep.cells[i].id +
                               "' left key '" + key + "' unset");
    }
    rows.emplace_back(key, *value);
  }
  return rows;
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

PreparedSweep prepare_sweep(const ExperimentSpec& spec,
                            const ExperimentSetup& setup,
                            const RunContext& context, const CellSweep& sweep,
                            std::size_t index) {
  PreparedSweep prepared;
  prepared.sweep = &sweep;
  prepared.index = index;
  // Train (or load) on the calling thread so evaluators only ever load the
  // finished zoo entry — never race on training it.
  prepared.store_name = sweep_store_name(
      setup, spec.corruption, sweep,
      weights_checksum(
          *context.zoo().get_or_train(setup, sweep.variant, spec.verbose)));
  std::string store_path;
  if (!spec.cache_dir.empty()) {
    std::filesystem::create_directories(spec.cache_dir);
    store_path = spec.cache_dir + "/" + prepared.store_name;
  }
  // One instance per file, shared with every other writer of this process
  // (a concurrent serve tenant, the dist fleet appending worker rows).
  prepared.store = ResultStore::open(store_path);
  prepared.pending = pending_cells(
      sweep.cells,
      [&](const std::string& key) { return prepared.store->contains(key); });
  return prepared;
}

void evaluate_sweeps(const ExperimentSpec& spec, const ExperimentSetup& setup,
                     const RunContext& context,
                     const std::vector<PreparedSweep>& prepared) {
  // Every pending cell of the run, ordered by sweep: a thread moves on to
  // a later sweep at most once per sweep, so it holds one deployment.
  std::vector<std::pair<std::size_t, std::size_t>> claims;  // (sweep, cell)
  for (std::size_t s = 0; s < prepared.size(); ++s) {
    for (const std::size_t i : prepared[s].pending) claims.emplace_back(s, i);
  }
  // Detector sweeps run no scenario.evaluate spans, so they get their own
  // name and pipeline.sweep stays the denominator of the scenario busy
  // ratio.
  const bool detectors =
      std::any_of(prepared.begin(), prepared.end(),
                  [](const PreparedSweep& p) { return p.sweep->detectors; });
  trace::Span sweep_span(detectors ? "defense" : "pipeline",
                         detectors ? "defense.sweep" : "pipeline.sweep");
  if (sweep_span.active()) {
    sweep_span.arg("sweeps", static_cast<double>(prepared.size()))
        .arg("cells", static_cast<double>(claims.size()));
  }
  // One clean-prefix cache per sweep, shared by its deployments (each
  // boundary is built once, by whichever thread needs it first), and
  // released with the sweep's last cell: the caches of a many-sweep run are
  // never all live at once.
  struct SweepCache {
    std::shared_ptr<PrefixCache> prefix = std::make_shared<PrefixCache>();
    std::atomic<std::size_t> remaining{0};
  };
  std::vector<SweepCache> caches(prepared.size());
  for (std::size_t s = 0; s < prepared.size(); ++s) {
    caches[s].remaining = prepared[s].pending.size();
  }
  // A thread's deployment of the sweep it last claimed a cell of.
  // Evaluation corrupts and restores model weights, so every thread
  // deploys a private copy (cheap: a zoo cache load).
  struct Claimer {
    std::size_t sweep = 0;
    std::unique_ptr<Deployment> deployment;
  };
  ModelZoo& zoo = context.zoo();
  parallel_claim<Claimer>(
      claims.size(), spec.max_workers,
      [] { return std::make_unique<Claimer>(); },
      [&](Claimer& claimer, std::size_t c) {
        // Cell boundaries are the cancellation points: everything already
        // evaluated is persisted, so stopping here loses no work.
        // parallel_claim rethrows this on the caller.
        context.throw_if_cancelled(spec.experiment);
        const auto [s, i] = claims[c];
        const CellSweep& sweep = *prepared[s].sweep;
        ResultStore& store = *prepared[s].store;
        // A cell filled since the prepare stage, by a concurrent serve
        // tenant of the same store, is not evaluated twice.
        const std::vector<std::string>& keys = sweep.cells[i].keys;
        if (!std::all_of(keys.begin(), keys.end(), [&](const std::string& key) {
              return store.contains(key);
            })) {
          if (!claimer.deployment || claimer.sweep != s) {
            claimer.deployment.reset();  // one live deployment per thread
            claimer.deployment = std::make_unique<Deployment>(
                spec, setup, sweep,
                zoo.get_or_train(setup, sweep.variant, false),
                caches[s].prefix);
            claimer.sweep = s;
          }
          sweep.evaluate(*claimer.deployment, i, store);
        }
        if (--caches[s].remaining == 0) caches[s].prefix.reset();
      });
}

std::vector<SweptCell> collect_sweep(const PreparedSweep& prepared) {
  const std::vector<SweepCell>& cells = prepared.sweep->cells;
  const ResultStore& store = *prepared.store;
  // Assemble in declaration order: execution order never leaks out.
  std::vector<SweptCell> swept(cells.size());
  for (const std::size_t i : prepared.pending) swept[i].fresh = true;
  if (!store.csv_path().empty()) {
    // One hit per key of a distinct cell read from the store, one miss per
    // key of a cell evaluated; the read-back below counts nothing.
    static metrics::Counter& hits = metrics::counter("store.lookup_hits");
    static metrics::Counter& misses = metrics::counter("store.lookup_misses");
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (seen.insert(cells[i].id).second) {
        (swept[i].fresh ? misses : hits).add(cells[i].keys.size());
      }
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const std::string& key : cells[i].keys) {
      const auto value = store.lookup(key);
      SAFELIGHT_ASSERT(value.has_value(), "sweep: cell '" + cells[i].id +
                                              "' missing '" + key +
                                              "' after evaluation");
      swept[i].values.push_back(*value);
    }
  }
  return swept;
}

std::vector<SweptCell> sweep_cells(const ExperimentSpec& spec,
                                   const RunContext& context,
                                   const CellSweep& sweep) {
  const ExperimentSetup setup = spec.resolved_setup();
  const std::vector<PreparedSweep> prepared = {
      prepare_sweep(spec, setup, context, sweep, 0)};
  evaluate_sweeps(spec, setup, context, prepared);
  return collect_sweep(prepared.front());
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
