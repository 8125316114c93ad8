// Shard planner: turns one (experiment, spec) into rounds of worker tasks.
//
// The distributed layer never reimplements an experiment — it only *warms
// the caches* the in-process experiment will read. The planner therefore
// answers exactly one question per round: "which (variant, scenario) cells
// of this experiment's sweeps are not yet in the canonical result stores?"
// It answers with the sweep engine's own cell list and pending rule
// (core::scenario_cells / core::pending_cells), so the planner and the
// in-process sweep agree on keys by construction. Those cells are chunked
// into TaskMessages; once the workers have filled them and the coordinator
// has merged the per-worker stores, the ordinary registry run replays the
// experiment with every lookup hitting cache, so the distributed output is
// byte-identical to a single-process run by construction.
//
// Rounds exist because robust_compare has a sequential dependency: the
// robust variant is unknown until the mitigation selection sweep finishes.
// Round 1 shards that selection sweep; between rounds the planner runs
// mitigation in-process (now fully cached, seconds) to pick the variant,
// then round 2 shards the Original-vs-robust comparison grid. The
// selection spec and comparison grid come from the same helpers
// (robust_compare_selection_spec / robust_compare_grid) the experiment
// itself uses, so the cache keys agree by construction, not by convention.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "dist/protocol.hpp"

namespace safelight::dist {

/// Tunables of one planning pass.
struct PlanOptions {
  std::size_t workers = 1;
  /// Scenarios per task; 0 picks clamp(pending / (workers * 4), 1, 32) —
  /// small enough that a lost task forfeits little work, large enough that
  /// per-task protocol and model-load overhead stays amortized.
  std::size_t chunk_size = 0;
};

class DistPlanner {
 public:
  /// `spec` must carry a non-empty cache_dir (there is nothing to
  /// distribute without persistent stores).
  DistPlanner(std::string experiment, core::ExperimentSpec spec);

  /// True when `experiment` decomposes into scenario sweeps the workers
  /// can run. detection and campaign are cell sweeps on the same engine,
  /// but workers only execute scenario tasks, so the CLI runs them
  /// in-process with a loud note instead.
  static bool shardable(const std::string& experiment);

  /// Plans the next round: trains every referenced variant through `zoo`
  /// (workers only ever load finished entries), reads the canonical stores
  /// and returns tasks for the uncached cells only. An empty vector is a
  /// valid round (everything already cached); nullopt means planning is
  /// finished. Between-round experiment stages (robust_compare's variant
  /// selection) run in here, against the merged caches.
  std::optional<std::vector<TaskMessage>> next_round(
      core::ModelZoo& zoo, const PlanOptions& options);

 private:
  std::vector<TaskMessage> plan_sweeps(
      core::ModelZoo& zoo, const core::ExperimentSpec& spec,
      const std::vector<core::VariantSpec>& variants,
      const std::vector<attack::AttackScenario>& grid,
      const PlanOptions& options);

  std::string experiment_;
  core::ExperimentSpec spec_;
  int stage_ = 0;
  std::uint64_t next_task_id_ = 1;
};

}  // namespace safelight::dist
