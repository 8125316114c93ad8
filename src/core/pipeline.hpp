// The cell-sweep engine every experiment runs through.
//
// Each sweep — the scenario grids behind the figures, the detection ROC
// sweep and the campaign sweep — has the same shape: "deploy one trained
// variant, fill a set of store keys per cell, assemble a report". A cell is
// a stable id plus the ResultStore keys its evaluation fills. An experiment
// declares its sweeps as data (CellSweep: variant, store suffix, cells,
// whether its deployments carry a detector suite, evaluate), the registry
// (ExperimentRegistry::run) hands each one to sweep_cells, and the engine
// owns the whole shape once:
//   * the variant is trained (or loaded) through the ModelZoo on the calling
//     thread, so fan-out threads only ever load the finished entry;
//   * the sweep's ResultStore is opened under the spec's cache_dir, named by
//     sweep_store_name;
//   * cells are deduplicated by id, and a cell is pending when any of its
//     keys is missing (an interrupt can land between a cell's flushes);
//     one key listed under two different ids is a declaration bug;
//   * pending cells fan out over safelight::parallel_claim: threads claim
//     cells one at a time, each on a private Deployment around its own
//     model copy (evaluation mutates weights, so threads never share one);
//     the deployments of one run share one clean-prefix cache, freed when
//     the run returns;
//   * the RunContext's cancel flag is checked at every cell boundary —
//     everything evaluated so far is persisted, so a rerun resumes;
//   * values come back per cell in declaration order, with a flag saying
//     whether this sweep evaluated the cell or read it from the store.
// Results never depend on execution order, so a sweep is deterministic in
// (spec, variant, cells) and identical between serial and parallel runs.
// The distributed layer (src/dist) fills subsets of the same declarations
// in worker processes on the same Deployment, so both paths agree on
// cells, keys, store names and how a variant is deployed.
//
// scenario_sweep() declares the scenario sweep on top of it: a variant's
// clean baseline plus one accuracy per scenario of a grid, read back in
// grid order by scenario_accuracies().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
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
/// first cell of each id that has a key `stored` does not report. Shared
/// by the engine and the distributed planner, so both agree on what is
/// cached by construction. Throws std::logic_error when one key is listed
/// under two different ids (two cells would race to append it).
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
/// evaluates on: the engine builds one per fan-out thread, a dist worker
/// one per kept sweep. The evaluator conditions the weights for the
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

/// FNV-1a checksum over all parameter bytes: the store name's key on the
/// trained weights.
std::string weights_checksum(nn::Sequential& model);

/// File name of the store of `sweep`, the one the engine, the dist planner
/// and its workers all use: setup tag, variant, weights checksum (retrained
/// weights never read stale entries), corruption fingerprint and suffix.
std::string sweep_store_name(const ExperimentSetup& setup,
                             const attack::CorruptionConfig& corruption,
                             const CellSweep& sweep,
                             const std::string& weights_checksum);

/// Runs one declared sweep under `spec` (setup, cache_dir, max_workers)
/// and `context` (zoo, cancel flag). The store is
/// `<spec.cache_dir>/<sweep_store_name>`, in memory when cache_dir is
/// empty. Throws ExperimentCancelled at the first cell boundary after
/// context.cancel flips. The whole call, training included, runs in one
/// trace span: `defense.sweep` for detector sweeps, `pipeline.sweep` for
/// the others.
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
