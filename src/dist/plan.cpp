#include "dist/plan.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"

namespace safelight::dist {

DistPlanner::DistPlanner(core::ExperimentSpec spec) : spec_(std::move(spec)) {
  require(!spec_.cache_dir.empty(),
          "DistPlanner: spec.cache_dir must be set (distribution works by "
          "warming the persistent result stores)");
}

std::vector<PlannedTask> DistPlanner::plan(core::ModelZoo& zoo,
                                           const core::ExperimentSpec& spec,
                                           std::size_t workers) {
  const core::ExperimentInfo& info =
      core::ExperimentRegistry::global().info(spec.experiment);
  const std::vector<core::CellSweep> sweeps = info.sweeps(spec);
  const core::ExperimentSetup setup = spec.resolved_setup();
  const std::string shipped_spec = core::spec_to_json(spec);

  std::vector<PlannedTask> whole;  // one unchunked task per pending sweep
  std::size_t total_pending = 0;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const core::CellSweep& sweep = sweeps[s];
    // Train (or load) here, in the coordinator: workers racing to train one
    // zoo entry would duplicate minutes of work per collision.
    const std::string checksum = core::weights_checksum(
        *zoo.get_or_train(setup, sweep.variant, spec.verbose));
    PlannedTask task{{0, spec.experiment, shipped_spec, s,
                      core::sweep_store_name(setup, spec.corruption, sweep,
                                             checksum),
                      {}},
                     {}};
    // Read-only: the planner must not lock or truncate a store the
    // coordinator and the assembly run will open later.
    std::unordered_set<std::string> cached;
    for (auto& entry :
         core::read_store_entries(spec.cache_dir + "/" + task.message.store)) {
      cached.insert(std::move(entry.key));
    }
    for (const std::size_t i : core::pending_cells(
             sweep.cells,
             [&](const std::string& key) { return cached.count(key) > 0; })) {
      task.message.cells.push_back(sweep.cells[i].id);
      task.keys.push_back(sweep.cells[i].keys);
    }
    total_pending += task.keys.size();
    if (!task.keys.empty()) whole.push_back(std::move(task));
  }

  const std::size_t chunk = std::clamp<std::size_t>(
      total_pending / (std::max<std::size_t>(workers, 1) * 4), 1, 32);
  std::vector<PlannedTask> tasks;
  for (const PlannedTask& sweep_task : whole) {
    const std::size_t cells = sweep_task.keys.size();
    for (std::size_t begin = 0; begin < cells; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, cells);
      PlannedTask task{sweep_task.message, {}};
      task.message.id = next_task_id_++;
      task.message.cells.assign(sweep_task.message.cells.begin() + begin,
                                sweep_task.message.cells.begin() + end);
      task.keys.assign(sweep_task.keys.begin() + begin,
                       sweep_task.keys.begin() + end);
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

std::optional<std::vector<PlannedTask>> DistPlanner::next_round(
    core::ModelZoo& zoo, std::size_t workers) {
  // robust_compare without a pinned variant: round 1 warms the mitigation
  // selection sweeps, round 2 (after the selection ran against the warmed
  // cache) warms the comparison sweeps with the selected variant pinned.
  const bool select =
      spec_.experiment == "robust_compare" && spec_.robust_variant.empty();
  const int stage = stage_++;
  if (stage == 0) {
    return plan(
        zoo, select ? core::robust_compare_selection_spec(spec_) : spec_,
        workers);
  }
  if (stage > 1 || !select) return std::nullopt;
  // Every selection cell is cached now, so the resolve is assembly-only
  // work; it pins the variant exactly as the in-process run will.
  core::RunContext context(zoo);
  return plan(zoo,
              core::ExperimentRegistry::global()
                  .info(spec_.experiment)
                  .resolve(spec_, context),
              workers);
}

}  // namespace safelight::dist
