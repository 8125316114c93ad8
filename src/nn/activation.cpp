#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safelight::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out = x;
  float* o = out.data();
  const std::size_t n = out.numel();
  // One branch-free select pass: `v > 0 ? v : 0` sends NaN and -0.0f to
  // +0.0f, exactly like the compare-and-clear it replaces.
  for (std::size_t i = 0; i < n; ++i) o[i] = o[i] > 0.0f ? o[i] : 0.0f;
  if (train) {
    // The output is positive exactly where the input is.
    mask_.resize(n);
    for (std::size_t i = 0; i < n; ++i) mask_[i] = o[i] > 0.0f;
    cached_shape_ = x.shape();
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  require(!mask_.empty(), "ReLU::backward called without forward(train=true)");
  require(grad_out.shape() == cached_shape_,
          "ReLU::backward: grad shape mismatch");
  Tensor grad_in = grad_out;
  float* g = grad_in.data();
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    g[i] = mask_[i] != 0 ? g[i] : 0.0f;
  }
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
