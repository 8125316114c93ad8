// Layer abstraction for the from-scratch CNN stack.
//
// Every layer implements forward (with a train flag for layers that behave
// differently at training time) and backward (must be called after a
// forward(train=true) on the same input). Parameters are exposed through
// Param handles; the accelerator mapping distinguishes conv weights (mapped
// onto the CONV block's MRs), linear weights (FC block) and electronic-domain
// parameters (biases, batch-norm — never mapped onto MRs, hence immune to MR
// attacks, exactly as in the paper's weight-stationary mapping).
//
// Threading: a layer call made outside a parallel region (a training step)
// fans its work out over the pool — GEMMs by tile or image group,
// element-wise loops in kElementGrain chunks; the same call nested inside
// one (the sweep's per-cell fan-out) runs serially. Both give the same
// bytes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace safelight::nn {

/// What kind of compute a parameter participates in; drives MR mapping.
enum class ParamKind {
  kConvWeight,    // mapped to the CONV block MR banks
  kLinearWeight,  // mapped to the FC block MR banks
  kElectronic,    // bias / batch-norm / other parameters kept electronic
};

/// A trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  ParamKind kind = ParamKind::kElectronic;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, ParamKind k, Tensor v)
      : name(std::move(n)), kind(k), value(std::move(v)),
        grad(Tensor::zeros(value.shape())) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;

  /// Computes the layer output. When `train` is true, state needed by
  /// backward (inputs, masks, statistics) is cached.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Propagates the loss gradient. Must follow forward(train=true);
  /// accumulates into each Param::grad and returns dL/dx.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward for a layer whose input gradient nobody reads (the first
  /// layer of a trained model): accumulates the same Param::grad bytes.
  /// The default runs backward and drops dL/dx; Conv2d skips computing it.
  virtual void backward_params(const Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable persistent state (e.g. batch-norm running statistics)
  /// that must be saved/restored together with the parameters.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  /// Diagnostic name, e.g. "Conv2d(3->16,k3,s1,p1)".
  virtual std::string name() const = 0;

  /// Output shape for a given input shape (batch dim included).
  virtual Shape output_shape(const Shape& in) const = 0;

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }

 protected:
  Layer() = default;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Smallest chunk, in floats, an element-wise layer loop (ReLU, MaxPool2d,
/// BatchNorm2d, BasicBlock's ReLUs and residual add) hands one pool thread
/// through parallel_for_chunks; below two of them the loop runs serially.
/// At 16K floats run-all tiny ran slower (pool hand-offs on tensors too
/// small to pay for them); at 64K its wall time is level with serial. Each
/// element (or channel) is computed by the same code whichever chunk holds
/// it, so outputs and gradients are byte-identical at any thread count.
inline constexpr std::size_t kElementGrain = std::size_t{1} << 16;

/// Kaiming-He normal initialization: N(0, sqrt(2 / fan_in)).
void kaiming_init(Tensor& w, std::size_t fan_in, Rng& rng);

}  // namespace safelight::nn
