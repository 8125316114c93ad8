// The cell-sweep engine every experiment runs through.
//
// Each sweep — the scenario grids behind the figures, the detection ROC
// sweep and the campaign sweep — has the same shape: "deploy one trained
// variant, fill a set of store keys per cell, assemble a report". A cell is
// a stable id plus the ResultStore keys its evaluation fills. The engine
// owns the whole shape once:
//   * the variant is trained (or loaded) through the ModelZoo on the calling
//     thread, so workers only ever load the finished entry;
//   * the sweep's ResultStore is opened under the spec's cache_dir, named by
//     sweep_store_stem plus the experiment's suffix;
//   * cells are deduplicated by id, and a cell is pending when any of its
//     keys is missing (an interrupt can land between a cell's flushes);
//   * pending cells fan out over safelight::parallel_claim: threads claim
//     cells one at a time, each with a private worker built around its own
//     model copy (evaluation mutates weights, so threads never share one);
//   * the RunContext's cancel flag is checked at every cell boundary —
//     everything evaluated so far is persisted, so a rerun resumes;
//   * values come back per cell in declaration order, with a flag saying
//     whether this sweep evaluated the cell or read it from the store.
// Results never depend on execution order, so a sweep is deterministic in
// (spec, variant, cells) and identical between serial and parallel runs.
//
// sweep_variant() is the scenario sweep on top of it: a variant's clean
// baseline plus one accuracy per scenario of a grid, with one clean-prefix
// cache shared by the sweep's evaluators.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/corruption.hpp"
#include "attacks/scenario.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"

namespace safelight::core {

/// One unit of a cell sweep. Cells sharing an id are one evaluation.
struct SweepCell {
  std::string id;
  std::vector<std::string> keys;  // store keys its evaluation fills
};

/// One swept cell as handed to assembly.
struct SweptCell {
  std::vector<double> values;  // one per key, in key order
  /// True for the cell this sweep evaluated; false when its values came
  /// from the store (a previous run, or an earlier cell with the same id).
  bool fresh = false;
};

/// Indices of the cells a sweep must evaluate, in declaration order: the
/// first cell of each id that has a key `stored` does not report. Shared
/// by the engine and the distributed planner, so both agree on what is
/// cached by construction.
std::vector<std::size_t> pending_cells(
    const std::vector<SweepCell>& cells,
    const std::function<bool(const std::string&)>& stored);

/// Path (without extension) of the result-store files of a sweep of
/// `variant_name` under `cache_dir`. `weights_checksum` is the trained
/// variant's checksum — part of the name so retrained weights never read
/// stale entries; `corruption` likewise fingerprints ablated physics.
std::string sweep_store_stem(const std::string& cache_dir,
                             const ExperimentSetup& setup,
                             const std::string& variant_name,
                             const std::string& weights_checksum,
                             const attack::CorruptionConfig& corruption);

namespace detail {
/// Type-erased core of sweep_cells.
std::vector<SweptCell> sweep_cells(
    const ExperimentSpec& spec, const RunContext& context,
    const VariantSpec& variant, const std::string& store_suffix,
    const std::vector<SweepCell>& cells,
    const std::function<std::shared_ptr<void>(std::unique_ptr<nn::Sequential>)>&
        make_worker,
    const std::function<void(void*, std::size_t, ResultStore&)>& evaluate);
}  // namespace detail

/// Runs one cell sweep of `variant` under `spec` (setup, cache_dir,
/// max_workers) and `context` (zoo, cancel flag). The store is
/// `sweep_store_stem(...) + store_suffix` under spec.cache_dir, in memory
/// when cache_dir is empty. Each fan-out thread builds one Worker with
/// make_worker from its own copy of the variant's weights; evaluate(worker,
/// i, store) must put every key of cells[i]. Throws ExperimentCancelled at
/// the first cell boundary after context.cancel flips.
template <typename Worker>
std::vector<SweptCell> sweep_cells(
    const ExperimentSpec& spec, const RunContext& context,
    const VariantSpec& variant, const std::string& store_suffix,
    const std::vector<SweepCell>& cells,
    const std::function<std::unique_ptr<Worker>(
        std::unique_ptr<nn::Sequential>)>& make_worker,
    const std::function<void(Worker&, std::size_t, ResultStore&)>& evaluate) {
  return detail::sweep_cells(
      spec, context, variant, store_suffix, cells,
      [&make_worker](std::unique_ptr<nn::Sequential> model)
          -> std::shared_ptr<void> { return make_worker(std::move(model)); },
      [&evaluate](void* worker, std::size_t i, ResultStore& store) {
        evaluate(*static_cast<Worker*>(worker), i, store);
      });
}

/// One evaluated grid entry.
struct ScenarioOutcome {
  attack::AttackScenario scenario;
  double accuracy = 0.0;
  /// True when the value came from the result store rather than an
  /// evaluation in this sweep.
  bool from_cache = false;
};

/// Outcome of one sweep_variant call.
struct SweepResult {
  std::string variant;
  double baseline_accuracy = 0.0;  // unattacked accuracy, evaluated once
  bool baseline_from_cache = false;
  std::vector<ScenarioOutcome> rows;  // in grid order
  std::size_t cache_hits = 0;  // rows served from the result store
  std::size_t evaluated = 0;   // scenarios actually evaluated this run

  /// Accuracies in grid order.
  std::vector<double> accuracies() const;

  /// Five-number summary over all rows; throws when the sweep is empty.
  BoxStats under_attack() const;
};

/// Store key of a scenario: its stable id plus the evaluation subset size
/// (a larger eval_count is a different measurement).
std::string scenario_store_key(const attack::AttackScenario& scenario,
                               std::size_t eval_count);

/// Store key of the clean (unattacked) baseline evaluation.
std::string baseline_store_key(std::size_t eval_count);

/// Cells of a scenario sweep over `grid`: the clean baseline first, then
/// one cell per scenario in grid order. Validates every scenario.
std::vector<SweepCell> scenario_cells(
    const std::vector<attack::AttackScenario>& grid, std::size_t eval_count);

/// Evaluates `variant` under every scenario in `grid` (setup, store and
/// physics from `spec`, zoo and cancel flag from `context`); results in
/// grid order. The sweep's evaluators share one clean-prefix cache, so each
/// first-dirty boundary is built once per sweep. Its store is
/// `<sweep_store_stem>.sweep.csv`.
SweepResult sweep_variant(const ExperimentSpec& spec,
                          const RunContext& context,
                          const VariantSpec& variant,
                          const std::vector<attack::AttackScenario>& grid);

}  // namespace safelight::core
