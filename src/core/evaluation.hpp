// Attack evaluation engine: one deployed model variant under attack.
//
// For one trained model variant, the evaluator:
//   1. conditions the weights for deployment (per-tensor normalization +
//      DAC quantization, accel::OnnExecutor),
//   2. snapshots the conditioned state,
//   3. per scenario: restores the snapshot, applies the attack corruption
//      through the weight-stationary mapping, and measures accuracy on the
//      evaluation subset.
// The evaluator is pure compute: every call evaluates. Results are cached
// only by the cell engine's stores (core/pipeline.hpp), which dedupe cells
// before they reach an evaluator.
//
// Prefix-activation caching: apply_attack only mutates parameters of
// MR-mapped layers, so for the fixed eval set the activations up to the
// first corrupted layer are identical across scenarios. The evaluator
// detects each scenario's first dirty layer (byte comparison against the
// clean snapshot), takes the clean activations at that boundary from a
// PrefixCache (built once per boundary; the pipeline shares one per sweep),
// and resumes every scenario's forward there — bitwise-identical to a full
// forward, and free of the conv-stack cost for FC-only attacks. Caching is
// disabled while a *mutating* read-out hook is installed (the hook corrupts
// even clean-prefix layers); observing hooks (defense range monitors) keep
// it active.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/executor.hpp"
#include "attacks/campaign.hpp"
#include "attacks/corruption.hpp"
#include "core/experiment_scale.hpp"

namespace safelight::core {

/// Clean activations per eval batch at prefix boundaries (layer indices),
/// shareable between the evaluators of one sweep. Thread-safe: each
/// boundary is built once, by its first caller, while later callers wait.
class PrefixCache {
 public:
  using Activations = std::vector<nn::Tensor>;

  /// The activations at `boundary`, running `build` on first use; nullptr
  /// when admitting its `floats` would push the cache past ~256 MB.
  const Activations* get(std::size_t boundary, std::size_t floats,
                         const std::function<Activations()>& build);

  std::size_t size() const;  // boundaries admitted

 private:
  struct Entry {
    std::once_flag built;
    Activations activations;
  };

  mutable std::mutex mutex_;             // guards entries_ and floats_
  std::map<std::size_t, Entry> entries_;  // nodes never move
  std::size_t floats_ = 0;                // floats admitted, all boundaries
};

class AttackEvaluator {
 public:
  /// The model reference must outlive the evaluator; its weights are
  /// managed by the evaluator from here on (conditioned, attacked,
  /// restored). `corruption` sets the attack physics shared by every
  /// scenario this evaluator runs. `prefix_cache` may be shared by
  /// evaluators of the same weights and setup; null makes a private one.
  /// `variant_name` is ignored. `cache_dir` must be empty: a non-empty one
  /// throws std::invalid_argument, because results persist only through
  /// the cell engine's stores (core::sweep_cells).
  AttackEvaluator(const ExperimentSetup& setup, nn::Sequential& model,
                  const std::string& variant_name,
                  const std::string& cache_dir,
                  attack::CorruptionConfig corruption = {},
                  std::shared_ptr<PrefixCache> prefix_cache = nullptr);

  /// Accuracy of the unattacked (conditioned) model on the eval subset.
  double baseline_accuracy();

  /// Accuracy under one attack scenario.
  double evaluate_scenario(const attack::AttackScenario& scenario);

  /// Applies `scenario` to the clean deployment and *leaves the model
  /// attacked* — the detection sweep's entry point for checking detectors
  /// against a compromised deployment. Call restore_clean() when done.
  /// Returns the corruption stats latched in last_stats(), thermal field
  /// included.
  const attack::CorruptionStats& apply_scenario(
      const attack::AttackScenario& scenario);

  /// Accuracy under a composite scenario. All components corrupt the
  /// deployment in one pass before a single evaluation; the prefix cache
  /// resumes at the first layer any component dirtied (first_dirty_layer
  /// spans the union of components, because it byte-compares the whole
  /// mapped state against the clean snapshot).
  double evaluate_composite(const attack::CompositeScenario& composite);

  /// apply_scenario for a composite — the campaign sweep's entry point
  /// for checking detectors against a composite-compromised deployment.
  /// Returns the aggregated corruption stats latched in last_stats().
  const attack::CorruptionStats& apply_composite(
      const attack::CompositeScenario& composite);

  /// Corruption statistics of the most recently applied scenario or
  /// composite.
  const attack::CorruptionStats& last_stats() const { return last_stats_; }

  /// Leaves the model in its clean conditioned state.
  void restore_clean();

  /// Enables/disables prefix-activation caching for this evaluator (on by
  /// default; results are bitwise-identical either way, and tests A/B both
  /// paths).
  void set_prefix_cache(bool enabled) { prefix_cache_enabled_ = enabled; }

  /// Index of the first layer whose mapped parameters differ from the clean
  /// snapshot; model.size() when no corruption landed. Exposed for tests.
  std::size_t first_dirty_layer() const;

  /// Prefix evaluations served / boundaries cached so far (diagnostics).
  std::size_t prefix_hits() const { return prefix_hits_; }
  std::size_t prefix_boundaries() const { return prefix_cache_->size(); }

  const ExperimentSetup& setup() const { return setup_; }

  /// The evaluator's executor, exposed so callers can install read-out
  /// hooks (ADC attack payloads, defense monitors). Hooks registered as
  /// ReadoutHookKind::kObserving keep the prefix cache active; mutating
  /// hooks force plain evaluation (see evaluate_attacked).
  accel::OnnExecutor& executor() { return executor_; }

 private:
  /// Accuracy of the currently-attacked model, routed through the prefix
  /// cache when eligible, plain evaluation otherwise.
  double evaluate_attacked();

  /// Computes the clean activations at boundary `layer` (temporarily
  /// restoring the clean weights), and their size in floats.
  PrefixCache::Activations clean_prefix(std::size_t layer);
  std::size_t prefix_floats(std::size_t layer);

  /// The evaluation subset, generated on first use, so a deployment that
  /// only runs detector checks never pays for it.
  const nn::Dataset& eval_data();

  ExperimentSetup setup_;
  nn::Sequential& model_;
  accel::OnnExecutor executor_;
  accel::WeightStationaryMapping mapping_;
  std::vector<nn::Tensor> clean_snapshot_;
  std::optional<nn::Dataset> eval_data_;
  attack::CorruptionConfig corruption_;
  attack::CorruptionStats last_stats_{};

  /// Per-layer clean copies of the MR-mapped parameter tensors, in layer
  /// order (only layers that own mapped parameters appear).
  std::vector<std::pair<std::size_t,
                        std::vector<std::pair<const nn::Param*, nn::Tensor>>>>
      clean_mapped_;
  std::shared_ptr<PrefixCache> prefix_cache_;
  bool prefix_cache_enabled_ = true;
  std::size_t prefix_hits_ = 0;
};

}  // namespace safelight::core
