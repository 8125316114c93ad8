// The cell-sweep engine every experiment runs through.
//
// Each sweep — the scenario grids behind the figures, the detection ROC
// sweep and the campaign sweep — has the same shape: "deploy one trained
// variant, fill a set of store keys per cell, assemble a report". A cell is
// a stable id plus the ResultStore keys its evaluation fills. An experiment
// declares its sweeps as data (CellSweep: variant, store suffix, cells,
// whether its deployments carry a detector suite, evaluate), and the
// registry (ExperimentRegistry::run) takes all of a run's sweeps through
// the engine's three stages:
//   * prepare: the variant is trained (or loaded) on the calling thread;
//     the ResultStore named by sweep_store_name is opened under the spec's
//     cache_dir; cells are deduplicated by id, and a cell is pending when
//     any of its keys is missing (an interrupt can land between a cell's
//     flushes); one key listed under two different ids is a declaration bug.
//     The registry then drops a cell id already pending in an earlier sweep
//     of the same store, so no hand-off lists a cell twice;
//   * evaluate: one hand-off of every pending cell of the run to the
//     RunContext evaluate hook. Its default, evaluate_sweeps, claims the
//     run's (sweep, cell) pairs in sweep order over one parallel_claim, each
//     thread on a private Deployment of the sweep it is in (evaluation
//     mutates weights), the deployments of a sweep sharing one clean-prefix
//     cache, with the cancel flag checked at every cell boundary (all that
//     was evaluated is persisted, so a rerun resumes). Under `--workers`
//     the dist fleet is the hook; its workers evaluate on the same
//     Deployment (evaluate_cell_rows) and the fleet appends their rows to
//     the stores;
//   * collect: values come back per cell in declaration order, with a flag
//     saying whether the run evaluated the cell or read it from the store.
// Results never depend on execution order, so a sweep is deterministic in
// (spec, variant, cells) and identical between serial, parallel and
// distributed runs.
//
// scenario_sweep() declares the scenario sweep on top of it: a variant's
// clean baseline plus one accuracy per scenario of a grid, read back in
// grid order by scenario_accuracies().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attacks/corruption.hpp"
#include "attacks/scenario.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/result_store.hpp"
#include "defense/suite.hpp"

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
/// first cell of each id that has a key `stored` does not report. Throws
/// std::logic_error when one key is listed under two different ids (two
/// cells would race to append it).
std::vector<std::size_t> pending_cells(
    const std::vector<SweepCell>& cells,
    const std::function<bool(const std::string&)>& stored);

struct Deployment;

/// One cell sweep as data (ExperimentInfo::sweeps): what the engine, or a
/// dist worker filling some of its cells, runs. `evaluate` owns what it
/// captures, so a declaration outlives the call that made it.
struct CellSweep {
  VariantSpec variant;       // the deployed variant
  std::string store_suffix;  // store file suffix, e.g. ".sweep.csv"
  std::vector<SweepCell> cells;
  /// Whether each deployment calibrates a detector suite (Deployment::suite).
  bool detectors = false;
  /// Evaluates cells[i] on a deployment; must put every key of the cell.
  std::function<void(Deployment&, std::size_t, ResultStore&)> evaluate;
};

/// One private deployment of a sweep's variant, the only state a cell
/// evaluates on: the engine builds one per thread and sweep it claims
/// cells of, a dist worker one per kept sweep. The evaluator conditions the weights for the
/// accelerator and manages them from then on (attack, restore); the suite,
/// present when sweep.detectors is set, is calibrated on the clean
/// deployment under the spec's base seed, so every deployment of a sweep
/// is identical and results never depend on which one evaluated a cell.
/// `setup` is spec.resolved_setup(), which the caller already holds.
struct Deployment {
  Deployment(const ExperimentSpec& spec, const ExperimentSetup& setup,
             const CellSweep& sweep, std::unique_ptr<nn::Sequential> weights,
             std::shared_ptr<PrefixCache> prefix);

  std::unique_ptr<nn::Sequential> model;
  AttackEvaluator evaluator;
  std::optional<defense::DetectorSuite> suite;
};

/// Evaluates sweep.cells[i] on `deployment` into a private in-memory store
/// and returns the cell's rows, one (key, value) per declared key in key
/// order: what a dist worker sends the coordinator. Throws
/// std::runtime_error when the evaluation left a declared key unset.
std::vector<std::pair<std::string, double>> evaluate_cell_rows(
    const CellSweep& sweep, Deployment& deployment, std::size_t i);

/// FNV-1a checksum over all parameter bytes: the store name's key on the
/// trained weights.
std::string weights_checksum(nn::Sequential& model);

/// File name of the store of `sweep`, the one the engine and the dist
/// workers both use: setup tag, variant, weights checksum (retrained
/// weights never read stale entries), corruption fingerprint and suffix.
std::string sweep_store_name(const ExperimentSetup& setup,
                             const attack::CorruptionConfig& corruption,
                             const CellSweep& sweep,
                             const std::string& weights_checksum);

/// One declared sweep after the prepare stage.
struct PreparedSweep {
  const CellSweep* sweep = nullptr;  // the declaration, owned by the caller
  std::size_t index = 0;   // its position in the experiment's sweeps(spec)
  std::string store_name;  // sweep_store_name, also when not persisted
  std::shared_ptr<ResultStore> store;  // the process's one instance
  std::vector<std::size_t> pending;    // pending_cells, declaration order
};

/// Prepare stage of declared sweep `index` (`setup` is
/// spec.resolved_setup()): trains or loads its variant through
/// context.zoo(), opens `<spec.cache_dir>/<sweep_store_name>` (in memory
/// when cache_dir is empty) and computes its pending cells.
PreparedSweep prepare_sweep(const ExperimentSpec& spec,
                            const ExperimentSetup& setup,
                            const RunContext& context, const CellSweep& sweep,
                            std::size_t index);

/// Evaluate stage in process, RunContext::evaluate's default: one
/// parallel_claim over spec.max_workers threads claims every pending cell
/// of `prepared` in sweep order into its sweep's store. A thread rebuilds
/// its deployment only when it claims a cell of a later sweep, and a
/// sweep's prefix cache is released with its last cell. Throws
/// ExperimentCancelled at the first cell boundary after context.cancel
/// flips. One trace span with args `sweeps` and `cells` (pending cells
/// handed over): `defense.sweep` when any sweep carries detectors,
/// `pipeline.sweep` otherwise.
void evaluate_sweeps(const ExperimentSpec& spec, const ExperimentSetup& setup,
                     const RunContext& context,
                     const std::vector<PreparedSweep>& prepared);

/// Collect stage: one store.lookup_misses per key of a distinct pending
/// cell, one store.lookup_hits per key of a distinct stored one (persisted
/// stores only), then every cell read back in declaration order.
std::vector<SweptCell> collect_sweep(const PreparedSweep& prepared);

/// One standalone sweep through the three stages, in process
/// (evaluate_sweeps on a one-sweep hand-off) whatever hook `context`
/// carries (ablations, tests).
std::vector<SweptCell> sweep_cells(const ExperimentSpec& spec,
                                   const RunContext& context,
                                   const CellSweep& sweep);

/// The scenario sweep of `variant` over `grid` (`setup` is
/// spec.resolved_setup()): cell 0 is the clean baseline, cell i > 0 is
/// grid[i - 1], keyed by scenario id and eval count; suffix `.sweep.csv`.
CellSweep scenario_sweep(const ExperimentSpec& spec,
                         const ExperimentSetup& setup,
                         const VariantSpec& variant,
                         std::vector<attack::AttackScenario> grid);

/// Accuracies of a swept scenario sweep in grid order: cells 1..n (cell 0
/// is the clean baseline).
std::vector<double> scenario_accuracies(const std::vector<SweptCell>& swept);

}  // namespace safelight::core
