#include "dist/plan.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "attacks/corruption.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/result_store.hpp"

namespace safelight::dist {

namespace {

/// Keys already durable in the canonical store of `stem_path` (read-only:
/// the planner must not lock or truncate a store the assembly run will
/// open later).
std::unordered_set<std::string> cached_keys(const std::string& stem_path) {
  std::unordered_set<std::string> keys;
  for (auto& entry : core::read_store_entries(stem_path + ".sweep.csv")) {
    keys.insert(std::move(entry.key));
  }
  return keys;
}

}  // namespace

DistPlanner::DistPlanner(std::string experiment, core::ExperimentSpec spec)
    : experiment_(std::move(experiment)), spec_(std::move(spec)) {
  require(shardable(experiment_),
          "DistPlanner: experiment '" + experiment_ + "' is not shardable");
  require(!spec_.cache_dir.empty(),
          "DistPlanner: spec.cache_dir must be set (distribution works by "
          "warming the persistent result stores)");
}

bool DistPlanner::shardable(const std::string& experiment) {
  return experiment == "susceptibility" || experiment == "mitigation" ||
         experiment == "robust_compare";
}

std::vector<TaskMessage> DistPlanner::plan_sweeps(
    core::ModelZoo& zoo, const core::ExperimentSpec& spec,
    const std::vector<core::VariantSpec>& variants,
    const std::vector<attack::AttackScenario>& grid,
    const PlanOptions& options) {
  const core::ExperimentSetup setup = spec.resolved_setup();
  const std::string fingerprint = attack::config_fingerprint(spec.corruption);

  struct VariantWork {
    const core::VariantSpec* variant;
    std::string stem;  // file stem, no directory
    bool baseline = false;
    std::vector<attack::AttackScenario> pending;
  };
  std::vector<VariantWork> work;
  std::size_t total_pending = 0;
  for (const auto& variant : variants) {
    // Train (or load) here, in the coordinator: workers racing to train one
    // zoo entry would duplicate minutes of work per collision.
    auto model = zoo.get_or_train(setup, variant, spec.verbose);
    const std::string stem_path =
        core::sweep_store_stem(spec.cache_dir, setup, variant.name,
                               core::weights_checksum(*model),
                               spec.corruption);
    const auto cached = cached_keys(stem_path);

    VariantWork vw;
    vw.variant = &variant;
    vw.stem = std::filesystem::path(stem_path).filename().string();
    // The sweep's own cells and pending rule: cell 0 is the baseline, cell
    // i > 0 is grid[i - 1].
    const auto pending = core::pending_cells(
        core::scenario_cells(grid, setup.eval_count),
        [&](const std::string& key) { return cached.count(key) > 0; });
    for (const std::size_t i : pending) {
      if (i == 0) {
        vw.baseline = true;
      } else {
        vw.pending.push_back(grid[i - 1]);
      }
    }
    total_pending += vw.pending.size() + (vw.baseline ? 1 : 0);
    if (vw.baseline || !vw.pending.empty()) work.push_back(std::move(vw));
  }

  std::size_t chunk = options.chunk_size;
  if (chunk == 0) {
    const std::size_t workers = std::max<std::size_t>(options.workers, 1);
    chunk = std::clamp<std::size_t>(total_pending / (workers * 4), 1, 32);
  }

  std::vector<TaskMessage> tasks;
  for (const auto& vw : work) {
    bool first = true;
    for (std::size_t begin = 0;
         begin < vw.pending.size() || (first && vw.baseline);
         begin += chunk) {
      TaskMessage task;
      task.id = next_task_id_++;
      task.model = nn::to_string(setup.model);
      task.scale = to_string(setup.scale);
      task.variant = vw.variant->name;
      task.l2_strength = spec.l2_strength;
      task.store_stem = vw.stem;
      task.fingerprint = fingerprint;
      task.baseline = first && vw.baseline;  // ride on the first chunk
      const std::size_t end = std::min(begin + chunk, vw.pending.size());
      task.scenarios.assign(vw.pending.begin() + begin,
                            vw.pending.begin() + end);
      tasks.push_back(std::move(task));
      first = false;
    }
  }
  return tasks;
}

std::optional<std::vector<TaskMessage>> DistPlanner::next_round(
    core::ModelZoo& zoo, const PlanOptions& options) {
  if (experiment_ == "susceptibility") {
    if (stage_++ > 0) return std::nullopt;
    return plan_sweeps(
        zoo, spec_, {core::variant_by_name("Original")},
        attack::paper_scenario_grid(spec_.seed_count, spec_.base_seed),
        options);
  }
  if (experiment_ == "mitigation") {
    if (stage_++ > 0) return std::nullopt;
    return plan_sweeps(
        zoo, spec_, core::paper_variants(spec_.l2_strength),
        attack::paper_scenario_grid(spec_.seed_count, spec_.base_seed),
        options);
  }
  // robust_compare: round 1 warms the mitigation selection sweep, round 2
  // (after the selection ran against the merged cache) warms the
  // Original-vs-robust comparison grid.
  if (stage_ == 0) {
    stage_ = 1;
    if (spec_.robust_variant.empty()) {
      const core::ExperimentSpec selection =
          core::robust_compare_selection_spec(spec_);
      return plan_sweeps(
          zoo, selection, core::paper_variants(selection.l2_strength),
          attack::paper_scenario_grid(selection.seed_count,
                                      selection.base_seed),
          options);
    }
    // Pinned robust variant: no selection round needed; fall through to the
    // comparison round immediately.
  }
  if (stage_ == 1) {
    stage_ = 2;
    std::string robust_name = spec_.robust_variant;
    if (robust_name.empty()) {
      // Every selection cell is cached now, so this is assembly-only work.
      core::RunContext context(zoo);
      robust_name = core::ExperimentRegistry::global()
                        .run(core::robust_compare_selection_spec(spec_),
                             context)
                        .as<core::MitigationReport>()
                        .best_robust()
                        .variant.name;
    }
    return plan_sweeps(
        zoo, spec_,
        {core::variant_by_name("Original"),
         core::variant_by_name(robust_name, spec_.l2_strength)},
        core::robust_compare_grid(spec_), options);
  }
  return std::nullopt;
}

}  // namespace safelight::dist
