#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace safelight::nn {

void relu_inplace(float* x, std::size_t n, unsigned char* mask) {
  parallel_for_chunks(
      0, n,
      [x, mask](std::size_t lo, std::size_t hi) {
        // One branch-free select pass; the positive results are exactly
        // the positive inputs.
        for (std::size_t i = lo; i < hi; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
        if (mask == nullptr) return;
        for (std::size_t i = lo; i < hi; ++i) mask[i] = x[i] > 0.0f;
      },
      kElementGrain);
}

void relu_backward_inplace(float* g, const unsigned char* mask,
                           std::size_t n) {
  parallel_for_chunks(
      0, n,
      [g, mask](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          g[i] = mask[i] != 0 ? g[i] : 0.0f;
        }
      },
      kElementGrain);
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out = x;
  if (train) {
    mask_.resize(out.numel());
    cached_shape_ = x.shape();
  }
  relu_inplace(out.data(), out.numel(), train ? mask_.data() : nullptr);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  require(!mask_.empty(), "ReLU::backward called without forward(train=true)");
  require(grad_out.shape() == cached_shape_,
          "ReLU::backward: grad shape mismatch");
  Tensor grad_in = grad_out;
  relu_backward_inplace(grad_in.data(), mask_.data(), grad_in.numel());
  return grad_in;
}

Tensor softmax2d(const Tensor& logits) {
  require(logits.rank() == 2, "softmax2d: expected [N,C]");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  Tensor out(logits.shape());
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    float* orow = out.data() + n * classes;
    const float mx = *std::max_element(row, row + classes);
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      orow[c] = std::exp(row[c] - mx);
      denom += orow[c];
    }
    for (std::size_t c = 0; c < classes; ++c) {
      orow[c] = static_cast<float>(orow[c] / denom);
    }
  }
  return out;
}

}  // namespace safelight::nn
