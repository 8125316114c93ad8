// Elementwise activations.
#pragma once

#include "nn/layer.hpp"

namespace safelight::nn {

class ReLU final : public Layer {
 public:
  ReLU() = default;

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::vector<unsigned char> mask_;  // 1 where input > 0 (train only)
  Shape cached_shape_;
};

/// Row-wise softmax over the last dimension of a [N, C] tensor. Forward-only
/// utility (the loss uses fused log-softmax); provided for examples that want
/// class probabilities.
Tensor softmax2d(const Tensor& logits);

}  // namespace safelight::nn
