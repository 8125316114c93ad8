// Accelerator inference executor.
//
// The fast experiment path follows the paper's methodology: the simulator
// "modif[ies] the models' parameters based on their mapping to the ONN
// accelerator" and then runs inference. The executor owns the deployment
// conditioning (per-tensor normalization + DAC-resolution quantization of
// every MR-mapped weight) and, optionally, ADC-resolution quantization of
// the photodetected partial sums after each mapped layer. With attacks
// disabled the executor's output provably matches the pure software forward
// pass within quantizer resolution (integration-tested).
//
// Every forward entry point is a window [begin_layer, end_layer) over the
// same per-layer walk, so a pass split at any boundary is bitwise-identical
// to an unsplit pass. The attack sweep exploits this: activations of the
// layers *before* the first corrupted one are computed once per sweep
// (forward_prefix) and every scenario resumes from them (forward_from /
// evaluate_from) — see core::AttackEvaluator.
#pragma once

#include <functional>
#include <vector>

#include "accel/arch.hpp"
#include "nn/dataset.hpp"
#include "nn/sequential.hpp"

namespace safelight::accel {

/// Hook invoked after each MR-mapped layer's forward pass; used by attack
/// models that corrupt the electronic read-out (e.g. compromised ADCs) and
/// by defense monitors that sample it. Arguments: the layer's output tensor
/// (mutable), the block that computed it, and the ADC full-scale magnitude
/// chosen for the tensor.
using ReadoutHook =
    std::function<void(nn::Tensor&, BlockKind, float full_scale)>;

/// How a registered read-out hook interacts with the activations it sees.
/// The distinction drives the prefix-activation cache: a mutating hook
/// (ADC trojan payload) corrupts the outputs of clean layers too, so cached
/// clean activations would be wrong and the sweep must take the slow path.
/// An observing hook (range monitor, telemetry tap) leaves every tensor
/// untouched, so cached prefixes stay valid — but note that a prefix-cached
/// evaluation resumes after the cached boundary, so observers only see the
/// mapped layers at or after it.
enum class ReadoutHookKind { kMutating, kObserving };

struct ExecutorOptions {
  bool quantize_weights = true;      // DAC resolution on imprinted weights
  bool quantize_activations = false; // ADC resolution on mapped-layer outputs
};

class OnnExecutor {
 public:
  explicit OnnExecutor(AcceleratorConfig config, ExecutorOptions options = {});

  const AcceleratorConfig& config() const { return config_; }
  const ExecutorOptions& options() const { return options_; }

  /// Emulates weight deployment onto the MR banks: each conv/linear weight
  /// tensor is normalized by its abs-max and snapped to DAC resolution
  /// (in place). Electronic parameters are untouched. Returns `model`, so
  /// a member initializer can condition it before a mapping captures its
  /// normalization scales.
  nn::Sequential& condition_weights(nn::Sequential& model) const;

  /// Forward pass through the accelerator.
  nn::Tensor forward(nn::Sequential& model, const nn::Tensor& x) const;

  /// Forward through layers [0, end_layer) only; returns the boundary
  /// activation that forward_from resumes bitwise-identically from.
  nn::Tensor forward_prefix(nn::Sequential& model, const nn::Tensor& x,
                            std::size_t end_layer) const;

  /// Resumes a forward pass at begin_layer from a boundary activation.
  nn::Tensor forward_from(nn::Sequential& model, const nn::Tensor& h,
                          std::size_t begin_layer) const;

  /// Classification accuracy of `model` on `data` via this executor.
  double evaluate(nn::Sequential& model, const nn::Dataset& data,
                  std::size_t batch_size = 64) const;

  /// Boundary activations of every batch of `data` at end_layer, in batch
  /// order (the cacheable prefix of a sweep's evaluations). Batching must
  /// match the evaluate_from call that consumes them.
  std::vector<nn::Tensor> prefix_activations(nn::Sequential& model,
                                             const nn::Dataset& data,
                                             std::size_t end_layer,
                                             std::size_t batch_size = 64) const;

  /// evaluate(), but every batch's forward resumes at begin_layer from the
  /// matching entry of `prefix` (computed by prefix_activations with the
  /// same batch_size). Bitwise-identical to evaluate() whenever the layers
  /// before begin_layer are in the state the prefix was computed with.
  double evaluate_from(nn::Sequential& model, const nn::Dataset& data,
                       std::size_t begin_layer,
                       const std::vector<nn::Tensor>& prefix,
                       std::size_t batch_size = 64) const;

  /// Replaces the whole hook stack with one hook (or clears it, with
  /// nullptr); hooks run on the read-out of every mapped layer. `kind`
  /// defaults to kMutating (the safe assumption); register monitors that
  /// never modify the tensor as kObserving so accuracy sweeps keep their
  /// prefix-activation cache.
  void set_readout_hook(ReadoutHook hook,
                        ReadoutHookKind kind = ReadoutHookKind::kMutating) {
    readout_hooks_.clear();
    if (hook) push_readout_hook(std::move(hook), kind);
  }

  /// Stacks a hook on top of the installed ones. Hooks run in push order
  /// after each mapped layer: mutating payloads (ADC trojans) first-pushed
  /// see the raw read-out, observers pushed on top see what the electronics
  /// downstream would — which is how campaign sweeps run defense monitors
  /// concurrently with an active read-out attack. Pop is strictly LIFO
  /// (ScopedObservingHook enforces it by scoping).
  void push_readout_hook(ReadoutHook hook,
                         ReadoutHookKind kind = ReadoutHookKind::kMutating) {
    readout_hooks_.push_back({std::move(hook), kind});
  }

  /// Removes the most recently pushed hook; throws when the stack is empty.
  void pop_readout_hook();

  bool has_readout_hook() const { return !readout_hooks_.empty(); }
  std::size_t readout_hook_count() const { return readout_hooks_.size(); }

  /// True when any installed hook may modify activations (the condition
  /// that invalidates cached clean prefixes; see core::AttackEvaluator).
  bool has_mutating_readout_hook() const {
    for (const auto& entry : readout_hooks_) {
      if (entry.kind == ReadoutHookKind::kMutating) return true;
    }
    return false;
  }

 private:
  /// Shared layer walk over [begin_layer, end_layer): plain forwards plus,
  /// per mapped layer, ADC quantization and the read-out hook when enabled.
  nn::Tensor walk(nn::Sequential& model, const nn::Tensor& h,
                  std::size_t begin_layer, std::size_t end_layer) const;

  /// Argmax-accuracy of `logits` rows against `labels`.
  static std::size_t count_correct(const nn::Tensor& logits,
                                   const std::vector<int>& labels);

  struct HookEntry {
    ReadoutHook hook;
    ReadoutHookKind kind = ReadoutHookKind::kMutating;
  };

  AcceleratorConfig config_;
  ExecutorOptions options_;
  std::vector<HookEntry> readout_hooks_;  // run in push order per layer
};

}  // namespace safelight::accel
