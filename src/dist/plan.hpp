// Shard planner: turns one spec into rounds of worker tasks.
//
// The distributed layer never reimplements an experiment — it only *warms
// the caches* the in-process experiment will read. The planner therefore
// answers exactly one question per round: "which cells of this experiment's
// sweeps are not yet in the canonical result stores?" It answers with the
// experiment's own declarations (core::ExperimentInfo::sweeps), store names
// (core::sweep_store_name) and pending rule (core::pending_cells), so the
// planner and the in-process run agree on cells, keys and stores by
// construction. The pending cells are chunked into tasks, each with the
// store keys its cells declare; once the workers have sent every cell's
// rows and the coordinator has appended them to the canonical stores, the
// ordinary registry run replays the experiment with every lookup hitting
// cache, so the distributed output is byte-identical to a single-process
// run by construction.
//
// Rounds exist because robust_compare declares its comparison sweeps only
// once its robust variant is pinned. Unpinned, round 1 shards the mitigation
// sweeps of robust_compare_selection_spec; round 2 resolves the spec through
// the experiment's own ExperimentInfo::resolve (which runs that mitigation
// in-process, fully cached, exactly as the registry run will) and shards
// robust_compare with the variant pinned into the shipped spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "dist/protocol.hpp"

namespace safelight::dist {

/// One planned task: the message a worker receives, plus the store keys
/// each of its cells declares (keys[j] belongs to message.cells[j]) — the
/// only rows the coordinator accepts for it.
struct PlannedTask {
  TaskMessage message;
  std::vector<std::vector<std::string>> keys;
};

class DistPlanner {
 public:
  /// `spec` must carry a non-empty cache_dir (there is nothing to
  /// distribute without persistent stores); spec.experiment names the
  /// registry experiment to shard.
  explicit DistPlanner(core::ExperimentSpec spec);

  /// Plans the next round for `workers` worker processes: trains every
  /// declared variant through `zoo` (workers only load finished entries),
  /// reads the canonical stores and returns tasks for the uncached cells,
  /// clamp(pending / (workers * 4), 1, 32) per task — a lost task forfeits
  /// little work, per-task overhead stays amortized. An empty vector is a
  /// valid round (all cached); nullopt means planning is finished.
  std::optional<std::vector<PlannedTask>> next_round(core::ModelZoo& zoo,
                                                     std::size_t workers);

 private:
  std::vector<PlannedTask> plan(core::ModelZoo& zoo,
                                const core::ExperimentSpec& spec,
                                std::size_t workers);

  core::ExperimentSpec spec_;
  int stage_ = 0;
  std::uint64_t next_task_id_ = 1;
};

}  // namespace safelight::dist
