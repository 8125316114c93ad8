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

/// ReLU in place over x[0, n): `v > 0 ? v : 0`, which sends NaN and -0.0f
/// to +0.0f. With a non-null `mask`, also sets mask[i] = 1 where the result
/// is positive and 0 elsewhere (backward's mask). Fans out over the pool in
/// kElementGrain chunks; serial inside a parallel region.
void relu_inplace(float* x, std::size_t n, unsigned char* mask);

/// ReLU's backward in place: g[i] = mask[i] != 0 ? g[i] : 0. Chunked like
/// relu_inplace.
void relu_backward_inplace(float* g, const unsigned char* mask,
                           std::size_t n);

/// Row-wise softmax over the last dimension of a [N, C] tensor. Forward-only
/// utility (the loss uses fused log-softmax); provided for examples that want
/// class probabilities.
Tensor softmax2d(const Tensor& logits);

}  // namespace safelight::nn
